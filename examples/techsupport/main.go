// Techsupport: generate an HP-forum-like corpus, build every matching
// method over it, and compare their precision on the generator's relevance
// ground truth — a miniature of the paper's Table 4 on one domain.
//
// Run with: go run ./examples/techsupport
package main

import (
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/forum"
	"repro/internal/lda"
)

func main() {
	const posts = 300
	const queries = 40

	generated := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: posts, Seed: 11})
	texts := make([]string, len(generated))
	for i, p := range generated {
		texts[i] = p.Text
	}
	fmt.Printf("generated %d tech-support posts over %d topics\n\n", posts, forum.NumTopics(forum.TechSupport))

	docs := baseline.Prepare(texts)
	methods := []baseline.Method{baseline.FullText, baseline.LDA, baseline.ContentMR, baseline.SentIntentMR, baseline.IntentIntentMR}
	for _, m := range methods {
		matcher, err := m.Build(docs, baseline.Config{LDA: lda.Config{K: 8, Iterations: 50}, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		var perQuery []float64
		for q := 0; q < queries; q++ {
			relevant := forum.RelevantSet(generated, generated[q])
			ids := core.TopIDs(matcher.Match(q, 5))
			perQuery = append(perQuery, eval.Precision(ids, relevant))
		}
		fmt.Printf("%-16s mean precision %.3f  (zero-result queries: %.0f%%)\n",
			matcher.Name(), eval.MeanPrecision(perQuery), eval.ZeroFraction(perQuery)*100)
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
}
