// Package match implements the document-matching layer of Sec 7: the
// intention-based multi-ranking method of Algorithms 1 and 2
// (IntentIntent-MR) and the comparison methods of Sec 9.2 — FullText
// (whole-post MySQL-style ranking), LDA (topic-distribution similarity),
// Content-MR (topical segmentation + TF/IDF clusters), and SentIntent-MR
// (sentence units + CM clusters). All expose the same Matcher interface:
// given a reference post in the collection, return the top-k most related
// posts.
package match

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/lda"
	"repro/internal/topk"
)

// Result is one related document with its matching score.
type Result struct {
	DocID int
	Score float64
}

// Answer is one answered Related query in the form every serving engine
// returns it — the in-process pipeline (core) and the networked
// coordinator (fleet) alike — so one HTTP server can sit over either.
// Explanations is index-aligned with Results and nil unless the query
// asked for the Eq 7–9 decomposition. Partial and Missing are only ever
// set by an engine that scatters over a network: when Partial is false
// the ranking is proven complete; when true, Missing names the shards
// whose lists could not be fetched in budget and Results is exactly the
// merge over the remaining shards.
type Answer struct {
	Results      []Result
	Explanations []Explanation
	Partial      bool
	Missing      []int
}

// Matcher finds the documents most related to a reference document of the
// prepared collection.
type Matcher interface {
	// Name identifies the method in experiment output (Table 4 row labels).
	Name() string
	// Match returns up to k related documents for the collection document
	// docID, best first, never including docID itself.
	Match(docID, k int) []Result
}

// FullText is the whole-post baseline: one inverted index over entire
// posts with the Eq 7 weighting — the paper's MySQL 5.5.3 full-text
// configuration.
type FullText struct {
	ix    *index.Index
	terms [][]string
}

// NewFullText indexes the collection; docs[i] holds the content terms of
// document i.
func NewFullText(docs [][]string) *FullText {
	ft := &FullText{ix: index.New(), terms: docs}
	for _, terms := range docs {
		ft.ix.Add(terms)
	}
	return ft
}

// Name implements Matcher.
func (ft *FullText) Name() string { return "FullText" }

// Match implements Matcher. Unit ids coincide with document ids here.
func (ft *FullText) Match(docID, k int) []Result {
	if docID < 0 || docID >= len(ft.terms) {
		return nil
	}
	q := index.TermFrequencies(ft.terms[docID])
	res := ft.ix.Query(q, k, func(u int) bool { return u == docID })
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{DocID: r.Unit, Score: r.Score}
	}
	return out
}

// LDAMatcher ranks posts by the similarity of their LDA topic
// distributions. Like the paper's LDA baseline it has no index: every
// query scans the collection, which is what makes it the slowest method in
// Fig 11(c).
type LDAMatcher struct {
	model *lda.Model
}

// NewLDA trains a topic model over the collection's term lists.
func NewLDA(docs [][]string, cfg lda.Config) (*LDAMatcher, error) {
	m, err := lda.Train(docs, cfg)
	if err != nil {
		return nil, fmt.Errorf("match: training LDA: %w", err)
	}
	return &LDAMatcher{model: m}, nil
}

// Name implements Matcher.
func (lm *LDAMatcher) Name() string { return "LDA" }

// Match implements Matcher.
func (lm *LDAMatcher) Match(docID, k int) []Result {
	n := lm.model.NumDocs()
	if docID < 0 || docID >= n || k <= 0 {
		return nil
	}
	q := lm.model.DocTopics(docID)
	c := topk.New(k)
	for d := 0; d < n; d++ {
		if d == docID {
			continue
		}
		c.Offer(d, lda.Similarity(q, lm.model.DocTopics(d)))
	}
	return toResults(c.Results())
}

// toResults converts the shared top-k helper's items into match results.
func toResults(items []topk.Item) []Result {
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{DocID: it.ID, Score: it.Score}
	}
	return out
}

// TopKScores selects the k highest-scoring entries of a doc → score map
// under the deterministic (score descending, id ascending) ordering,
// best first, excluding excludeDoc and non-positive scores — Algorithm
// 2's final selection, exported for the sharded scatter-gather merge so
// both paths share one tie-break rule.
func TopKScores(scores map[int]float64, k, excludeDoc int) []Result {
	c := topk.New(k)
	for d, s := range scores {
		if d == excludeDoc || s <= 0 {
			continue
		}
		c.Offer(d, s)
	}
	return toResults(c.Results())
}
