package baseline_test

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/forum"
	"repro/internal/lda"
)

// ExampleMethod_Build generates an HP-forum-like corpus, builds every
// matching method over it and compares their precision on the
// generator's relevance ground truth: a miniature of the paper's Table 4
// on one domain. It then shows how the intention pipeline's refinement
// coarsens the segments.
func ExampleMethod_Build() {
	const posts = 300
	const queries = 40

	generated := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: posts, Seed: 11})
	texts := make([]string, len(generated))
	for i, p := range generated {
		texts[i] = p.Text
	}
	topics := map[int]bool{}
	for _, p := range generated {
		topics[p.Topic] = true
	}
	fmt.Printf("generated %d tech-support posts over %d topics\n\n", posts, len(topics))

	docs := baseline.Prepare(texts)
	methods := []baseline.Method{baseline.FullText, baseline.LDA, baseline.ContentMR, baseline.SentIntentMR, baseline.IntentIntentMR}
	for _, m := range methods {
		matcher, err := m.Build(docs, baseline.Config{LDA: lda.Config{K: 8, Iterations: 50}, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		var perQuery []float64
		zeros := 0.0 // lists with no true positive (Sec 9.2.2)
		for q := 0; q < queries; q++ {
			relevant := forum.RelevantSet(generated, generated[q])
			p := eval.Precision(core.TopIDs(matcher.Match(q, 5)), relevant)
			perQuery = append(perQuery, p)
			if p == 0 {
				zeros++
			}
		}
		fmt.Printf("%-16s mean precision %.3f  (zero-result queries: %.0f%%)\n",
			matcher.Name(), eval.MeanPrecision(perQuery), zeros/queries*100)
	}

	// Peek inside the intention pipeline: what do its clusters look like?
	pipeline, err := core.Build(texts, core.Config{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	before, after := pipeline.SegmentCounts()
	fmt.Printf("\nsegment granularity (%% of posts, before grouping → after refinement):\n")
	distB := core.GranularityDistribution(before)
	distA := core.GranularityDistribution(after)
	for _, bucket := range core.GranularityBuckets() {
		fmt.Printf("  %-4s %5.1f%% → %5.1f%%\n", bucket, distB[bucket], distA[bucket])
	}
	// Output:
	// generated 300 tech-support posts over 6 topics
	//
	// FullText         mean precision 0.615  (zero-result queries: 0%)
	// LDA              mean precision 0.415  (zero-result queries: 5%)
	// Content-MR       mean precision 0.450  (zero-result queries: 12%)
	// SentIntent-MR    mean precision 0.765  (zero-result queries: 0%)
	// IntentIntent-MR  mean precision 0.760  (zero-result queries: 0%)
	//
	// segment granularity (% of posts, before grouping → after refinement):
	//   1      0.0% →   0.0%
	//   2      0.0% →   1.7%
	//   3      3.0% →  15.7%
	//   4      5.3% →  43.0%
	//   5-8   91.7% →  39.7%
}

// Example_travel is the hotel-review scenario of the paper's
// evaluation: find the reviews related to a reference review, and see
// why whole-post matching confuses reviews of the same hotel type that
// serve different needs.
func Example_travel() {
	posts := forum.Generate(forum.Config{Domain: forum.Travel, NumPosts: 250, Seed: 23})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}

	intent, err := core.Build(texts, core.Config{Seed: 23})
	if err != nil {
		log.Fatal(err)
	}
	full, err := baseline.FullText.Build(baseline.Prepare(texts), baseline.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Pick a query and compare what the two methods retrieve.
	const q = 3
	relevant := forum.RelevantSet(posts, posts[q])
	fmt.Printf("query review (topic %d, request variant %d):\n  %s\n\n",
		posts[q].Topic, posts[q].Variant, wrap(posts[q].Text, 76))
	for _, m := range []struct {
		name    string
		related func(docID, k int) []core.Result
	}{{full.Name(), full.Match}, {intent.Method(), intent.Related}} {
		fmt.Printf("%s top-5:\n", m.name)
		hits := 0
		for rank, r := range m.related(q, 5) {
			tag := "different need"
			if relevant[r.DocID] {
				tag = "RELATED"
				hits++
			} else if posts[r.DocID].Topic != posts[q].Topic {
				tag = "different topic"
			}
			fmt.Printf("  %d. post %-4d [%s] topic %d variant %d\n",
				rank+1, r.DocID, tag, posts[r.DocID].Topic, posts[r.DocID].Variant)
		}
		fmt.Printf("  → %d/5 truly related\n\n", hits)
	}
	// Output:
	// query review (topic 4, request variant 0):
	//   I chose this place because of the treatment quality. My cousin recommended
	//   the thermal hotel after a family holiday there. Leaflets in the lobby
	//   covered booking treatments ahead in detail. The room comes with a
	//   aromatherapy set and plenty of space. The garden suite has a aromatherapy
	//   set and a view of the forest path. The desk staff handled questions about
	//   booking treatments ahead politely. You should warn me how early the silent
	//   garden fills up. Should I reserve the silent garden sessions before
	//   arriving? Overall I think the spa retreat is worth the price.
	//
	// FullText top-5:
	//   1. post 221  [different need] topic 4 variant 1
	//   2. post 2    [different need] topic 4 variant 2
	//   3. post 59   [RELATED] topic 4 variant 0
	//   4. post 236  [different need] topic 4 variant 2
	//   5. post 82   [RELATED] topic 4 variant 0
	//   → 2/5 truly related
	//
	// IntentIntent-MR top-5:
	//   1. post 108  [RELATED] topic 4 variant 0
	//   2. post 158  [RELATED] topic 4 variant 0
	//   3. post 239  [different need] topic 4 variant 1
	//   4. post 13   [RELATED] topic 4 variant 0
	//   5. post 221  [different need] topic 4 variant 1
	//   → 3/5 truly related
}

// wrap folds text to a maximum line width for terminal display.
func wrap(s string, width int) string {
	words := strings.Fields(s)
	var b strings.Builder
	line := 0
	for _, w := range words {
		if line+len(w)+1 > width {
			b.WriteString("\n  ")
			line = 0
		} else if line > 0 {
			b.WriteByte(' ')
			line++
		}
		b.WriteString(w)
		line += len(w)
	}
	return b.String()
}
