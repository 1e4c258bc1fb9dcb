// Package index implements the full-text indexing layer of Sec 7: an
// inverted index over text units (whole posts for the FullText baseline,
// intention-cluster segments for the paper's method) with the MySQL-5.5.3
// style term weighting of Eq 7/8 — log-scaled term frequency, a
// unique-term-count length normalization NU, and the smoothed probabilistic
// inverse document frequency of Eq 9. One Index instance backs one
// intention cluster (the paper builds |C| full-text indices plus one
// document-id index; see Fig 6); the whole-collection FullText baseline is
// the same structure with documents as units.
//
// Locking model: a single RWMutex guards all index state. Add (and
// Load) take the write lock; Query and every read accessor take the
// read lock for their full duration, so any number of queries proceed
// concurrently and additions serialize against them. Derived statistics
// (average unique-term count, document frequencies, per-posting log-TF
// numerators) are maintained incrementally at insertion time, so the query
// hot path recomputes nothing that insertion already knows.
//
// Scoring state: unit ids are dense, so a probe accumulates Eq 9 into a
// dense array indexed by unit id, not a hash map. The array, the bitset
// of cells the probe wrote and every scratch slice of the scan belong to
// a pooled accumulator (accum.go) that is taken and sized under the read
// lock, drained in O(units touched) and returned clean; one pool serves
// every index in the process. Both entry points — Query and
// QueryFrozen — resolve their factors and run the one scan in prune.go
// over the one accumulate loop, as does the tests' exhaustive reference
// (export_test.go), which is that scan with pruning off.
package index

import (
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Observability instruments for the per-cluster query internals. The
// candidate/result histograms size the scoring stage (how many units a
// query accumulates a score for, how many survive the top-n heap); the
// scorepool counters expose the accumulator pool: get counts probes, new
// the probes that had to allocate cell storage (hits = get − new).
// index.scan.postings counts postings actually touched by a scan
// (full-list walks plus the pruned path's per-survivor binary probes) —
// the denominator for the pruning counters in prune.go. All recording
// is gated on the obs enabled flag and free otherwise.
var (
	histQueryCandidates = obs.NewCountHistogram("index.query.candidates")
	histQueryResults    = obs.NewCountHistogram("index.query.results")
	ctrScorePoolGet     = obs.NewCounter("index.scorepool.get")
	ctrScorePoolNew     = obs.NewCounter("index.scorepool.new")
	ctrScanPostings     = obs.NewCounter("index.scan.postings")
)

// Posting records one term occurrence list entry: the unit that contains
// the term, the term's frequency in it, and the precomputed Eq 7 weight
// numerator log(TF)+1 (stored at insertion so queries multiply instead of
// calling math.Log per posting). Posting lists are ordered by ascending
// unit id — Add assigns dense increasing ids — which Weight exploits for
// binary search.
type Posting struct {
	Unit  int32
	TF    int32
	LogTF float64
}

// unitStats caches the per-unit quantities of Eq 7/8: the weight
// denominator Σ(log f(t')+1) over the unit's distinct terms, and the count
// of unique terms feeding the NU normalization.
type unitStats struct {
	denom  float64
	unique int32
}

// Index is an inverted full-text index over integer-identified units.
type Index struct {
	mu          sync.RWMutex
	postings    map[string][]Posting
	units       []unitStats
	totalUnique int64 // sum of unique-term counts, for the NU average

	// bounds holds one score upper bound per posting list (term), the
	// foundation of the max-score pruned scan (see prune.go). Maintained
	// incrementally by Add under the write lock and rebuilt wholesale on
	// snapshot load; read under the read lock.
	bounds map[string]listBound

	// global, when non-nil, is the shared collection-statistics pool the
	// scoring reads Eq 9's N and n and the NU average from instead of the
	// local state — the mechanism that makes a sharded partition of one
	// collection score bit-identically to the whole (see GlobalStats).
	// Written only by AttachStats under mu; read under mu.
	global *GlobalStats
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string][]Posting),
		bounds:   make(map[string]listBound),
	}
}

// Add indexes a unit's terms and returns the unit id the index assigned
// (dense, starting at 0). Term order is irrelevant; duplicates are counted
// as term frequency. The Eq 7 weight denominator is summed in sorted term
// order — float summation is not associative, so accumulating in map
// iteration order would make two builds of the same collection differ at
// the ULP level and break score-identical rebuilds. Add is safe for
// concurrent use with itself and with queries.
func (ix *Index) Add(terms []string) int {
	tf := make(map[string]int, len(terms))
	for _, t := range terms {
		tf[t]++
	}
	unique := make([]string, 0, len(tf))
	for t := range tf {
		unique = append(unique, t)
	}
	sort.Strings(unique)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	g := ix.global
	if g != nil {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	id := int32(len(ix.units))
	var denom float64
	logTFs := make([]float64, len(unique))
	for i, t := range unique {
		logTF := math.Log(float64(tf[t])) + 1
		logTFs[i] = logTF
		ix.postings[t] = append(ix.postings[t], Posting{Unit: id, TF: int32(tf[t]), LogTF: logTF})
		denom += logTF
		if g != nil {
			g.df[t]++
		}
	}
	// Second pass: fold the new unit into each touched list's score upper
	// bound. The Eq 7 denominator is only known once every unique term has
	// been summed, so this cannot ride along the first pass.
	for i, t := range unique {
		ix.bounds[t] = ix.bounds[t].add(logTFs[i], denom, int32(len(tf)))
	}
	ix.units = append(ix.units, unitStats{denom: denom, unique: int32(len(tf))})
	ix.totalUnique += int64(len(tf))
	if g != nil {
		g.units++
		g.totalUnique += int64(len(tf))
	}
	return int(id)
}

// NumUnits returns the number of indexed units (|I| in Eq 9).
func (ix *Index) NumUnits() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.units)
}

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// DocFreq returns the number of units containing the term (|Iᵗ| in Eq 9).
func (ix *Index) DocFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings[term])
}

// avgUniqueLocked returns the mean unique-term count per unit — pooled
// across the collection when attached to a GlobalStats, local otherwise.
// The pooled division uses the same two integers an unsharded index
// would derive locally, so the float64 quotient is bit-identical.
// Callers must hold at least the read lock (and the pool's, when
// attached — see rlockStats).
func (ix *Index) avgUniqueLocked() float64 {
	if ix.global != nil {
		if ix.global.units == 0 {
			return 0
		}
		return float64(ix.global.totalUnique) / float64(ix.global.units)
	}
	if len(ix.units) == 0 {
		return 0
	}
	return float64(ix.totalUnique) / float64(len(ix.units))
}

// nu computes the length-normalization factor of Eq 7/8: units with more
// unique terms than the collection average are penalized proportionally;
// shorter units are not boosted (MySQL's behavior).
func nu(unique int32, avgUnique float64) float64 {
	if avgUnique <= 0 {
		return 1
	}
	if ratio := float64(unique) / avgUnique; ratio > 1 {
		return ratio
	}
	return 1
}

// Weight computes the Eq 7/8 weight of a term within a unit. It returns 0
// if the term does not occur in the unit. The posting list is ordered by
// unit id, so the lookup is a binary search rather than the former O(df)
// scan.
func (ix *Index) Weight(term string, unit int) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	posts := ix.postings[term]
	i := sort.Search(len(posts), func(i int) bool { return int(posts[i].Unit) >= unit })
	if i < len(posts) && int(posts[i].Unit) == unit {
		return ix.weightLocked(posts[i], ix.avgUniqueLocked())
	}
	return 0
}

func (ix *Index) weightLocked(p Posting, avgUnique float64) float64 {
	return weight(ix.units[p.Unit], p.LogTF, avgUnique)
}

// weight is the Eq 7/8 weight of a posting with numerator logTF in unit u.
func weight(u unitStats, logTF, avgUnique float64) float64 {
	if u.denom == 0 {
		return 0
	}
	return logTF / (u.denom * nu(u.unique, avgUnique))
}

// IDF computes the smoothed probabilistic inverse document frequency of
// Eq 9, log((N−n+0.5)/(n+0.5)), floored at zero so terms occurring in most
// units contribute nothing rather than negative evidence.
func (ix *Index) IDF(term string) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	return ix.idfLocked(term, ix.dfLocked(term, ix.postings[term]))
}

// idfLocked returns the pIDF for a term with the given (effective)
// document frequency, computed directly — one subtraction, one
// division, one math.Log. An earlier revision memoized the value in a
// sync.Map keyed by term and validated by (n, df); under a mixed
// serve/add load every add moves n, so the cache allocated a fresh
// entry per term per probe without ever hitting, and on the read-only
// path the two sync.Map operations cost as much as the log they saved
// (BenchmarkQueryReadOnly pins the direct computation at parity).
// Callers must hold at least the read lock, plus the pool read lock
// when attached.
func (ix *Index) idfLocked(term string, df int) float64 {
	return idf(ix.nLocked(), df)
}

func idf(n, df int) float64 {
	if df == 0 {
		return 0
	}
	v := math.Log((float64(n-df) + 0.5) / (float64(df) + 0.5))
	if v < 0 {
		return 0
	}
	return v
}

// Result is one scored unit of a query.
type Result struct {
	Unit  int
	Score float64
}

// Query scores every unit containing at least one query term with Eq 9 —
// Σ_t f_q(t)·w(t,unit)·pIDF(t) — and returns the topN results in
// descending score order. The exclude predicate (may be nil) drops units
// from the result, e.g. the query document's own segment. On large
// collections the scan prunes with per-list score upper bounds (see
// prune.go); the results are bit-identical to the exhaustive scan's
// in every case.
func (ix *Index) Query(queryTF map[string]float64, topN int, exclude func(unit int) bool) []Result {
	return ix.QueryTraced(queryTF, topN, exclude, nil)
}

// QueryTraced is Query with request-scoped tracing: when tr is non-nil
// it records one "index.query" event carrying the scan's candidate-set
// width, result count, and whether the pooled accumulator served the
// probe without allocating (pool hit). A nil tr costs one pointer check.
func (ix *Index) QueryTraced(queryTF map[string]float64, topN int, exclude func(unit int) bool, tr *obs.Trace) []Result {
	return ix.query(queryTF, topN, exclude, tr, true)
}

// query resolves the collection-level factors of the query's terms —
// the frozen-scoring shape, taken under the same lock hold as the scan —
// and runs the shared scan, pruned when allowed and worth it.
func (ix *Index) query(queryTF map[string]float64, topN int, exclude func(unit int) bool, tr *obs.Trace, mayPrune bool) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if topN <= 0 || len(ix.units) == 0 {
		return nil
	}
	// When attached to a collection pool, hold its read lock for the whole
	// scan so n, df, and the NU average stay mutually consistent (lock
	// order: Index.mu then GlobalStats.mu, matching Add).
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	acc := acquire(len(ix.units))
	// Ascending term order is the Eq 9 accumulation order. Float summation
	// is not associative, so map-order iteration would make scores vary at
	// the ULP level across runs and break tie determinism.
	terms := acc.terms[:0]
	for term := range queryTF {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	qf, idfs := acc.qf[:0], acc.idfs[:0]
	n := ix.nLocked()
	for _, t := range terms {
		qf = append(qf, queryTF[t])
		idfs = append(idfs, idf(n, ix.dfLocked(t, ix.postings[t])))
	}
	acc.terms, acc.qf, acc.idfs = terms, qf, idfs
	return ix.scanLocked(acc, terms, qf, idfs, ix.avgUniqueLocked(), topN, 0, exclude, tr, mayPrune && ix.shouldPruneLocked(topN))
}

// TermScore is one term's share of a unit's query score: the Eq 9
// product f_q(t) · w(t,unit) · pIDF(t) together with its factors, so a
// ranking is auditable against the paper's scoring definition.
type TermScore struct {
	Term    string  `json:"term"`
	QueryTF float64 `json:"query_tf"` // f_q(t): term frequency in the query segment
	Weight  float64 `json:"weight"`   // w(t,unit): Eq 7/8 posting weight
	IDF     float64 `json:"idf"`      // pIDF(t): Eq 9 smoothed inverse document frequency
	Product float64 `json:"product"`  // QueryTF · Weight · IDF
}

// Explain decomposes the score Query would assign to one unit into its
// per-term products, in sorted term order — the same factor values and
// the same summation order Query uses, so summing the products
// reproduces the unit's score bit-for-bit (the explain-mode
// reconciliation tests rely on this). Terms contributing zero (absent
// from the unit, or with zero pIDF) are omitted.
func (ix *Index) Explain(queryTF map[string]float64, unit int) []TermScore {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if unit < 0 || unit >= len(ix.units) {
		return nil
	}
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	avgUnique := ix.avgUniqueLocked()
	terms := make([]string, 0, len(queryTF))
	for term := range queryTF {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	var out []TermScore
	for _, term := range terms {
		posts := ix.postings[term]
		if len(posts) == 0 {
			continue
		}
		tIDF := ix.idfLocked(term, ix.dfLocked(term, posts))
		if tIDF == 0 {
			continue
		}
		i := sort.Search(len(posts), func(i int) bool { return int(posts[i].Unit) >= unit })
		if i >= len(posts) || int(posts[i].Unit) != unit {
			continue
		}
		qf := queryTF[term]
		w := ix.weightLocked(posts[i], avgUnique)
		out = append(out, TermScore{Term: term, QueryTF: qf, Weight: w, IDF: tIDF, Product: qf * w * tIDF})
	}
	return out
}

// TermFrequencies converts a term slice into the query TF map Query
// expects (f_sq(t) of Eq 9).
func TermFrequencies(terms []string) map[string]float64 {
	tf := make(map[string]float64, len(terms))
	for _, t := range terms {
		tf[t]++
	}
	return tf
}
