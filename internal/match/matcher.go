// Package match implements the document-matching layer of Sec 7: the
// intention-based multi-ranking method of Algorithms 1 and 2
// (IntentIntent-MR), and the Matcher interface every method answers
// through: given a reference post in the collection, return the top-k
// most related posts. MRConfig's Strategy and ContentVectors also give
// the segment-based comparison methods of Sec 9.2; those, and the
// whole-post ones, are built in internal/baseline.
package match

import "repro/internal/topk"

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
