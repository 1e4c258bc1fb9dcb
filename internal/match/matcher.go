// Package match implements the document-matching layer of Sec 7: the
// intention-based multi-ranking method of Algorithms 1 and 2
// (IntentIntent-MR), and the Matcher interface every method answers
// through: given a reference post in the collection, return the top-k
// most related posts. MRConfig's three stages (borders, vectors,
// grouping) also give the segment-based comparison methods of Sec 9.2;
// those, and the whole-post ones, are built in internal/baseline.
//
// The offline build fans out over GOMAXPROCS goroutines (internal/par),
// its output the same for any GOMAXPROCS. A query does not fan out: its
// Algorithm 1 probes run one after the other on the caller's goroutine,
// through the loop a shard leg runs too (clusterListsLocked).
package match

// Result is one related document with its matching score, and the entry
// of every scored list above the index: a shard's (local ids), a merged
// one (global ids) and the fleet's on the wire (the short JSON tags).
type Result struct {
	DocID int     `json:"d"`
	Score float64 `json:"s"`
}

// Before reports whether r ranks ahead of o: higher score first, lower
// document id on equal scores. Every ranking of the system is ordered by
// it, so none depends on the order candidates arrive in.
func (r Result) Before(o Result) bool {
	if r.Score != o.Score {
		return r.Score > o.Score
	}
	return r.DocID < o.DocID
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

// InsertTop offers r to top, at most k results best first under Before,
// and returns the list: r takes its place by binary search, behind any
// exact tie, and once top holds k the last falls off. k <= 0 keeps none.
func InsertTop(top []Result, k int, r Result) []Result {
	if k <= 0 || len(top) == k && !r.Before(top[k-1]) {
		return top
	}
	lo, hi := 0, len(top)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); r.Before(top[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if len(top) < k {
		top = append(top, Result{})
	}
	copy(top[lo+1:], top[lo:])
	top[lo] = r
	return top
}

// TopKScores selects the k highest-scoring entries of a doc → score map
// best first under Before, excluding excludeDoc and non-positive scores —
// Algorithm 2's final selection, shared by every engine so all rank by
// one rule.
func TopKScores(scores map[int]float64, k, excludeDoc int) []Result {
	top := make([]Result, 0, max(0, min(k, len(scores))))
	for d, s := range scores {
		if d != excludeDoc && s > 0 {
			top = InsertTop(top, k, Result{DocID: d, Score: s})
		}
	}
	return top
}
