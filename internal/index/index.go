// Package index implements the full-text indexing layer of Sec 7: an
// inverted index over text units (intention-cluster segments for the
// paper's method, whole posts for internal/baseline's FullText) with the
// MySQL-5.5.3 style term weighting of Eq 7/8 — log-scaled term frequency,
// a unique-term-count length normalization NU, and the smoothed
// probabilistic inverse document frequency of Eq 9. One Index instance
// backs one intention cluster (the paper builds |C| full-text indices plus
// one document-id index; see Fig 6); internal/baseline's whole-collection
// FullText is the same structure with documents as units.
//
// Layout: memory looks like the snapshot (compact.go, columns.go). Terms
// are ids of a shared Dict (dict.go); an index numbers the terms that
// occur in it and keeps one posting list — split into its TF = 1 unit
// ids and a TF > 1 remainder, see list — per number, in slices. Strings
// are read only where a sum must be ordered (ascending term, see Dict)
// or a caller speaks them: Add, Query and Explain are adapters over the
// id-keyed core (AddCounted, QueryFrozen, ExplainTerms).
//
// Locking model: a single RWMutex guards all index state. Add (and
// Load) take the write lock; Query, WriteTo and every read accessor take
// the read lock for their full duration, so any number of queries proceed
// concurrently and additions serialize against them. Derived statistics
// (average unique-term count, document frequencies) are maintained at
// insertion time, so the query hot path recomputes nothing that
// insertion already knows.
//
// Scoring state: unit ids are dense, so a probe accumulates Eq 9 into a
// pooled dense array (accum.go), not a hash map. Both entry points —
// Query and QueryFrozen — resolve their factors and run the one scan
// (scanLocked) over accum.go's kernels, one per run of a posting list
// (see list).
package index

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/portlog"
)

// Observability instruments for the per-cluster query internals. The
// candidate/result histograms size the scoring stage (how many units a
// query accumulates a score for, how many survive the top-n heap); the
// scorepool counters expose the accumulator pool: get counts probes, new
// the probes that had to allocate cell storage (hits = get − new).
// index.scan.postings counts the postings a scan walks: every posting of
// every query term with a non-zero pIDF; index.norms.build the divisor
// column rebuilds (normsLocked), and new those that could not reuse a
// retired pair. All recording is gated on the obs enabled flag.
var (
	histQueryCandidates = obs.NewCountHistogram("index.query.candidates")
	histQueryResults    = obs.NewCountHistogram("index.query.results")
	ctrScorePoolGet     = obs.NewCounter("index.scorepool.get")
	ctrScorePoolNew     = obs.NewCounter("index.scorepool.new")
	ctrNormsBuild       = obs.NewCounter("index.norms.build")
	ctrNormsNew         = obs.NewCounter("index.norms.new")
	ctrScanPostings     = obs.NewCounter("index.scan.postings")
)

// Posting records one term occurrence list entry: the unit that contains
// the term and the term's frequency in it — what the snapshot stores.
// Posting lists ascend in unit id (Add assigns dense increasing ids),
// which find exploits for binary search.
type Posting struct {
	Unit int32
	TF   int32
}

// list is one term's postings as an index holds them: two runs, each
// ascending in unit id and sharing no unit. ones names the units where
// the term occurs once — most postings of short intention segments, and
// for those the Eq 7/8 weight is a per-unit constant (unitNorms.inv) —
// and more is the TF > 1 remainder. The file knows one list; the runs
// are split when it is installed (install) and merged when it is
// written (appendCompact).
type list struct {
	ones []int32
	more []Posting
}

// len is the term's document frequency here.
func (l list) len() int { return len(l.ones) + len(l.more) }

// find returns the term's frequency in unit u, if it occurs there.
func (l list) find(u int32) (tf int32, ok bool) {
	if _, ok := slices.BinarySearch(l.ones, u); ok {
		return 1, true
	}
	i, ok := slices.BinarySearchFunc(l.more, u, func(p Posting, u int32) int { return cmp.Compare(p.Unit, u) })
	if ok {
		tf = l.more[i].TF
	}
	return tf, ok
}

// logTFs holds the Eq 7 weight numerator log(TF)+1 for every small TF:
// the very expression logTF falls back to, evaluated once per count
// instead of once per posting, hence the same float64.
var logTFs = func() (t [256]float64) {
	for tf := range t {
		t[tf] = portlog.Log(float64(tf)) + 1
	}
	return t
}()

func logTF(tf int32) float64 {
	if uint32(tf) < uint32(len(logTFs)) {
		return logTFs[tf]
	}
	return portlog.Log(float64(tf)) + 1
}

// Index is an inverted full-text index over integer-identified units.
type Index struct {
	mu   sync.RWMutex
	dict *Dict

	// The terms that occur in the index are numbered — in the snapshot's
	// (ascending term) order by Load and Build, in arrival order by Add —
	// and lists are columns over that numbering; slot finds a dictionary
	// id's number. A list is two runs (see list): ones is a
	// column, more holds a remainder only for the few lists that have
	// one — a second slice header on every list would cost more than the
	// remainders themselves. A loaded or built index carves each from one
	// array with clipped capacities, so Add copies a run out only when it
	// grows.
	slot map[int32]int32
	ones [][]int32
	more map[int32][]Posting

	// Per unit, the quantities of Eq 7/8: the weight denominator
	// Σ(log f(t')+1) over the unit's distinct terms, and the count of
	// unique terms feeding the NU normalization.
	denoms      []float64
	uniques     []int32
	totalUnique int64 // sum of unique-term counts, for the NU average
	// norms caches the per-unit divisor of Eq 7/8 under the NU average
	// the last probe scanned with (see normsLocked); not persisted. spare
	// is the pair the last write lock retired, whose storage the next
	// rebuild reuses.
	norms, spare atomic.Pointer[unitNorms]

	// global, when non-nil, is the shared collection-statistics pool the
	// scoring reads Eq 9's N and n and the NU average from instead of the
	// local state — the mechanism that makes a sharded partition of one
	// collection score bit-identically to the whole (see GlobalStats).
	// Written only by AttachStats under mu; read under mu.
	global *GlobalStats
}

// New returns an empty index over a dictionary of its own.
func New() *Index { return NewIn(NewDict()) }

// NewIn returns an empty index whose terms are ids of dict.
func NewIn(dict *Dict) *Index {
	return &Index{dict: dict, slot: make(map[int32]int32), more: make(map[int32][]Posting)}
}

// Add indexes a unit's terms and returns the unit id the index assigned
// (dense, starting at 0). Term order is irrelevant; duplicates are counted
// as term frequency. Add is safe for concurrent use with itself, with
// queries and with WriteTo.
func (ix *Index) Add(terms []string) int {
	ids := ix.dict.AppendIDs(nil, terms)
	return ix.AddCounted(CountTerms(ix.dict.Terms(), ids, nil))
}

// AddCounted is Add over a unit already counted (CountTerms), which a
// caller can do before it takes locks of its own. The Eq 7 weight
// denominator is summed in ascending term order — float summation is
// not associative, so any other order would make two builds of the same
// collection differ at the ULP level and break score-identical rebuilds.
func (ix *Index) AddCounted(unique, tf []int32) int {
	var denom float64
	for _, f := range tf {
		denom += logTF(f)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	g := ix.global
	if g != nil {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	ix.retireNormsLocked()
	id := int32(len(ix.denoms))
	for i, t := range unique {
		s, ok := ix.slot[t]
		if !ok {
			s = int32(len(ix.ones))
			ix.slot[t] = s
			ix.ones = append(ix.ones, nil)
		}
		if tf[i] == 1 {
			ix.ones[s] = append(ix.ones[s], id)
		} else {
			ix.more[s] = append(ix.more[s], Posting{Unit: id, TF: tf[i]})
		}
		if g != nil {
			g.addLocked(t, 1)
		}
	}
	ix.denoms, ix.uniques = append(ix.denoms, denom), append(ix.uniques, int32(len(unique)))
	ix.totalUnique += int64(len(unique))
	if g != nil {
		g.units++
		g.totalUnique += int64(len(unique))
	}
	return int(id)
}

// listAt returns list number s. Callers hold at least the read lock.
func (ix *Index) listAt(s int32) list { return list{ones: ix.ones[s], more: ix.more[s]} }

// listLocked returns the posting list of a dictionary id, empty when
// the term does not occur here (or is the unknown id -1).
func (ix *Index) listLocked(term int32) list {
	if s, ok := ix.slot[term]; ok {
		return ix.listAt(s)
	}
	return list{}
}

// NumUnits returns the number of indexed units (|I| in Eq 9).
func (ix *Index) NumUnits() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.denoms)
}

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.ones)
}

// DocFreq returns the number of units containing the term (|Iᵗ| in Eq 9).
func (ix *Index) DocFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.listLocked(ix.dict.Lookup(term)).len()
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
	if len(ix.denoms) == 0 {
		return 0
	}
	return float64(ix.totalUnique) / float64(len(ix.denoms))
}

// nu computes the length-normalization factor of Eq 7/8: units with more
// unique terms than the collection average are penalized proportionally;
// shorter units are not boosted (MySQL's behavior).
func nu(unique int32, avgUnique float64) float64 {
	if avgUnique <= 0 {
		return 1
	}
	return max(float64(unique)/avgUnique, 1)
}

// unitNorms is the Eq 7/8 divisor of every unit under one NU average,
// and its reciprocal: norm[u] = denom[u] · nu(unique[u], avg), the very
// product the weight logTF / (denom · nu) divides by, so logTF / norm[u]
// is the same float64 (the test files keep weight, the definition, to
// hold it to); inv[u] = logTF(1) / norm[u] is that quotient for the
// postings of a list's ones run, taken once a unit instead of once a
// posting — logTF(1) is exactly 1, and the division is the one the
// kernel would do. A unit without terms gets +Inf and +0, the divisor
// and the value of weight's +0; no posting names such a unit. The value
// is immutable until the next write lock retires it (retireNormsLocked):
// callers must not keep it past their read lock.
type unitNorms struct {
	avg       float64
	norm, inv []float64
}

// nuTable bounds the per-count NU table a rebuild fills; longer units call nu.
const nuTable = 128

// normsLocked returns the columns for avgUnique — the local, pooled or
// frozen average the probe resolved. The cached pair is valid iff it
// was built for that average and covers every unit; a probe that finds
// it stale builds one under the read lock it already holds (one pass, a
// multiply and a divide a unit) into the spare pair if that covers the
// units, else into 16 bytes a unit plus a quarter of headroom, so that
// an index growing an add at a time keeps reusing one array, and
// publishes it. Callers use the value returned and never re-read the
// pointer, so concurrent frozen probes carrying different averages, and
// concurrent duplicate builds, only cost the rebuild; a pair they
// replace goes to the collector, since another probe may be scanning it.
func (ix *Index) normsLocked(avgUnique float64) *unitNorms {
	units := len(ix.denoms)
	if c := ix.norms.Load(); c != nil && c.avg == avgUnique && len(c.norm) == units {
		return c
	}
	ctrNormsBuild.Inc()
	c := ix.spare.Swap(nil)
	if c == nil || cap(c.norm) < units {
		size := units + units/4
		both := make([]float64, 2*size)
		c = &unitNorms{norm: both[:0:size], inv: both[size:size]}
		ctrNormsNew.Inc()
	}
	norm, inv, uniques := c.norm[:units], c.inv[:units], ix.uniques[:units]
	c.avg, c.norm, c.inv = avgUnique, norm, inv
	var nus [nuTable]float64
	for k := range nus {
		nus[k] = nu(int32(k), avgUnique)
	}
	for u, d := range ix.denoms {
		var n float64
		if k := uniques[u]; uint32(k) < nuTable {
			n = d * nus[k]
		} else {
			n = d * nu(k, avgUnique)
		}
		if d == 0 {
			n = math.Inf(1)
		}
		norm[u], inv[u] = n, logTFs[1]/n
	}
	ix.norms.Store(c)
	return c
}

// retireNormsLocked moves the published columns to spare for the next
// rebuild to overwrite; under the write lock no probe holds them. Every
// write calls it: a Load of as many units under the same average would
// pass the cache check with the old units' divisors.
func (ix *Index) retireNormsLocked() {
	if c := ix.norms.Swap(nil); c != nil {
		ix.spare.Store(c)
	}
}

// idf is Eq 9's smoothed probabilistic inverse document frequency for a
// collection of n units and a term in df of them, log((n−df+0.5)/
// (df+0.5)), floored at zero so terms occurring in most units contribute
// nothing rather than negative evidence. It is computed per probe: a memo
// validated by (n, df) never hit under a mixed load, where every add
// moves n, and cost as much as the log it saved on a read-only one.
func idf(n, df int) float64 {
	if df == 0 {
		return 0
	}
	v := portlog.Log((float64(n-df) + 0.5) / (float64(df) + 0.5))
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
// from the result, e.g. the query document's own segment. It resolves
// the query's terms and their collection-level factors — the
// frozen-scoring shape, taken under the same lock hold as the scan — and
// runs the shared scan.
func (ix *Index) Query(queryTF map[string]float64, topN int, exclude func(unit int) bool) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if topN <= 0 || len(ix.denoms) == 0 {
		return nil
	}
	// When attached to a collection pool, hold its read lock for the whole
	// scan so n, df, and the NU average stay mutually consistent (lock
	// order: Index.mu then GlobalStats.mu, matching Add).
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	acc := acquire(len(ix.denoms))
	acc.names, acc.terms, acc.qf = ix.resolve(queryTF, acc.names[:0], acc.terms[:0], acc.qf[:0])
	acc.idfs = ix.idfsLocked(acc.terms, acc.idfs[:0])
	return ix.scanLocked(nil, acc, acc.terms, acc.qf, acc.idfs, ix.avgUniqueLocked(), topN, nil, exclude, nil)
}

// resolve turns a string-keyed query into the id form the core takes:
// its terms in ascending order — the Eq 9 accumulation order; map order
// would make scores vary at the ULP level across runs — as dictionary
// ids (-1 for a term the dictionary has never seen) with aligned query
// frequencies. names is sorting scratch.
func (ix *Index) resolve(queryTF map[string]float64, names []string, terms []int32, qf []float64) ([]string, []int32, []float64) {
	for t := range queryTF {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		terms = append(terms, ix.dict.Lookup(t))
		qf = append(qf, queryTF[t])
	}
	return names, terms, qf
}

// idfsLocked appends each term's pIDF under the current collection
// statistics. Callers hold the read lock, plus the pool's when attached.
func (ix *Index) idfsLocked(terms []int32, idfs []float64) []float64 {
	n := ix.nLocked()
	for _, t := range terms {
		idfs = append(idfs, idf(n, ix.dfLocked(t)))
	}
	return idfs
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
	_, terms, qf := ix.resolve(queryTF, nil, nil, nil)
	return ix.ExplainTerms(terms, qf, unit)
}

// ExplainTerms is Explain over dictionary ids in ascending term order
// with aligned query frequencies, as a probe carries them.
func (ix *Index) ExplainTerms(terms []int32, qf []float64, unit int) []TermScore {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if unit < 0 || unit >= len(ix.denoms) {
		return nil
	}
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	norm, n, names := ix.normsLocked(ix.avgUniqueLocked()).norm, ix.nLocked(), ix.dict.Terms()
	var out []TermScore
	for i, t := range terms {
		tf, ok := ix.listLocked(t).find(int32(unit))
		tIDF := idf(n, ix.dfLocked(t))
		if !ok || tIDF == 0 {
			continue
		}
		w := logTF(tf) / norm[unit]
		out = append(out, TermScore{Term: names[t], QueryTF: qf[i], Weight: w, IDF: tIDF, Product: qf[i] * w * tIDF})
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
