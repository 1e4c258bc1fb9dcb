package index

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/obs"
)

// accumulator is the pooled per-probe state of Algorithm 1: a dense
// score array indexed by unit id — unit ids are dense in
// [0, len(ix.denoms)), so a probe's partial scores need no hashing — and
// the scratch slices one probe fills and drains. Two invariants make
// one pool safe for every index in the process, whatever its size:
//
//   - Clean between probes. cells and touched are all zero whenever the
//     accumulator sits in the pool: release is only reached after a drain
//     has zeroed every cell the probe wrote (a probe that panics never
//     returns its accumulator), and growth allocates fresh zeroed arrays.
//   - Sized under the owner's lock. acquire is called with the probed
//     index's owner holding its read lock and sizes cells to
//     len(ix.denoms); units only grow under the owner's write lock, so
//     every posting the probe can see indexes inside the array.
//
// Cost follows what the probe touched. A sparse probe's kernels mark
// each written cell in the touched bitset, and its drain visits only the
// set bits (reading one word per 64 units of the probed index to find
// them). A dense probe — one that accumulates at least as many postings
// as the index has units (denseProbe) — marks nothing but its TF > 1
// postings, and its drain walks the cells of the probed index's units,
// 64 a block: the part of the array the probe can have written, never
// the tail a larger index left. Both come out in ascending unit order
// and leave cells and bitset zero. Memory is one accumulator per
// in-flight probe — 8 bytes per unit of the largest index it served,
// plus scratch proportional to that probe's terms and depth — and the
// pool, not the index, owns it.
type accumulator struct {
	cells   []float64 // cells[u]: unit u's partial score in the running probe
	touched []uint64  // bit u set ⇔ cells[u] was written by the running probe

	// Per-probe scratch, meaningless between probes; riding here keeps the
	// steady-state probe down to one allocation, its result slice.
	names  []string   // Query's terms, sorted, and aligned with them
	terms  []int32    // their dictionary ids,
	qf     []float64  // their query frequencies
	idfs   []float64  // and pIDFs
	active []scanTerm // the probe's non-empty, non-zero-pIDF lists
	top    []Result   // final top-n selection heap

	hit bool // the running probe allocated no cell storage (trace pool_hit)
}

// scorePool recycles accumulators across probes and across indices;
// serving workloads run Query at high rates and the accumulator is the
// probe's dominant memory.
var scorePool = sync.Pool{
	New: func() interface{} { return new(accumulator) },
}

// acquire takes an accumulator able to hold units cells, under the
// owner's read lock of the index whose unit count they pass.
// index.scorepool.new counts the probes that had to allocate cell
// storage — a fresh pool object or one grown for a larger index.
func acquire(units int) *accumulator {
	ctrScorePoolGet.Inc()
	acc := scorePool.Get().(*accumulator)
	acc.hit = len(acc.cells) >= units
	if !acc.hit {
		// A quarter of headroom: an index under Add grows one unit at a
		// time and must not reallocate the pool's accumulators on each.
		size := (units + units/4 + 63) &^ 63
		acc.cells = make([]float64, size)
		acc.touched = make([]uint64, size/64)
		ctrScorePoolNew.Inc()
	}
	return acc
}

// release returns a drained accumulator to the pool, dropping the
// scratch's references into index memory so a pooled object never pins
// a posting array an Add has since replaced.
func (acc *accumulator) release() {
	clear(acc.names)
	clear(acc.active)
	scorePool.Put(acc)
}

// The Eq 9 inner loops. Each adds f_q·w(t,unit)·pIDF, in that order, to
// the cell of every unit in one run of a posting list (see list), and
// none branches on what a posting holds: addOnes and accumulateOnes walk
// the ones run, where w = inv[unit] is a per-unit constant and a posting
// costs two multiplies and an add; accumulate walks the TF > 1 remainder
// with w = logTF / norm[unit], one table read and one divide by the
// probe's divisor column (Index.normsFor).

// addOnes is the kernel of a dense probe (see denseProbe): it marks
// nothing, because drainDense walks every cell of the index anyway. It
// is kept out of line: inlined into its caller's loop over the lists, the
// compiler keeps this loop's counter on the stack and every posting pays
// a store-to-load round trip (PR 25's step table in EXPERIMENTS.md at
// `6a1bd4d`: inlined 159.3–172.8 µs a request, out of line
// 145.4–151.6 µs).
//
//go:noinline
func (acc *accumulator) addOnes(inv []float64, ones []int32, qf, idf float64) {
	cells := acc.cells
	for _, u := range ones {
		cells[u] += float64(qf * inv[u] * idf)
	}
}

// accumulateOnes is addOnes for a sparse probe, one drained by the
// touched bitset: it marks every cell it writes. Out of line for
// addOnes' reason (PR 26's section in EXPERIMENTS.md at `6a1bd4d`:
// inlined 95.6 µs a probe of 25 000 postings into 32 000 units,
// `//go:noinline` 85.1 µs).
//
//go:noinline
func (acc *accumulator) accumulateOnes(inv []float64, ones []int32, qf, idf float64) {
	cells, touched := acc.cells, acc.touched
	for _, u := range ones {
		cells[u] += float64(qf * inv[u] * idf)
		touched[u>>6] |= 1 << (uint32(u) & 63)
	}
}

// accumulate adds a list's TF > 1 remainder and marks every cell it
// writes, dense probe or not: the remainder is a few postings in a
// hundred, and drainDense clears the words they set.
func (acc *accumulator) accumulate(norm []float64, more []Posting, qf, idf float64) {
	cells, touched := acc.cells, acc.touched
	for _, p := range more {
		cells[p.Unit] += float64(qf * (logTF(p.TF) / norm[p.Unit]) * idf)
		touched[p.Unit>>6] |= 1 << (uint32(p.Unit) & 63)
	}
}

// scanTerm is one query term of a scan that has a posting list and a
// non-zero pIDF.
type scanTerm struct {
	qf  float64
	idf float64
	list
}

// active collects into acc.active the probe's terms that have a posting
// list here and a non-zero pIDF, in the order given — ascending term
// order, the summation order — and returns how many postings the lists
// hold.
func (ix *Index) active(acc *accumulator, terms []int32, qf, idfs []float64) (totalPostings int64) {
	active := acc.active[:0]
	for i, t := range terms {
		s, ok := ix.slot[t]
		if !ok || idfs[i] == 0 {
			continue
		}
		at := scanTerm{qf: qf[i], idf: idfs[i], list: ix.listAt(s)}
		totalPostings += int64(at.len())
		active = append(active, at)
	}
	acc.active = active
	return totalPostings
}

// scan is the one scan behind Query and QueryFrozen: the exhaustive
// Eq 9 scan, its results appended to dst (see finish). Terms arrive as
// dictionary ids in ascending term order with aligned query frequencies
// and pIDFs, resolved by the caller under the same pool lock hold or
// frozen from the collection pool. shared, nil on the unsharded path, is
// the probe's Theta: the drain rejects against it as it goes and raises
// it to its n-th exact score. Callers pass an accumulator acquired under
// the same owner's read lock, which scan releases; only shard-local
// state (postings, units) and the resolved factors are read, so a
// scatter leg needs no lock but its own shard's.
func (ix *Index) scan(dst []Result, acc *accumulator, terms []int32, qf, idfs []float64, avgUnique float64, topN int, shared *Theta, exclude func(unit int) bool, tr *obs.Trace) []Result {
	cols := ix.normsFor(avgUnique)
	totalPostings := ix.active(acc, terms, qf, idfs)
	candidates, _ := acc.exhaust(cols, len(ix.denoms), totalPostings, topN, shared, exclude)
	ctrScanPostings.Add(totalPostings)
	res := acc.finish(dst, candidates, tr)
	acc.release()
	return res
}

// exhaust is the scan's accumulate and drain: every list in acc.active is
// accumulated in term order and the accumulator drained into the top-n,
// by the cells or by the bitset as denseProbe decides from the postings
// the lists hold and the index's unit count. It returns how many units
// were scored and how many cells and bitset words the drain read.
func (acc *accumulator) exhaust(cols *unitNorms, units int, postings int64, topN int, shared *Theta, exclude func(unit int) bool) (candidates, visited int) {
	if denseProbe(postings, units) {
		for _, at := range acc.active {
			acc.addOnes(cols.inv, at.ones, at.qf, at.idf)
			acc.accumulate(cols.norm, at.more, at.qf, at.idf)
		}
		return acc.drainDense(units, topN, shared, exclude)
	}
	for _, at := range acc.active {
		acc.accumulateOnes(cols.inv, at.ones, at.qf, at.idf)
		acc.accumulate(cols.norm, at.more, at.qf, at.idf)
	}
	return acc.drainTop(units, topN, shared, exclude)
}

// denseProbe reports whether an exhaustive probe about to accumulate
// postings postings into an index of units units skips the touched
// bitset: once it writes as many times as the index has cells, marking
// each write and finding the marks again costs more than reading every
// cell once (PR 25's dense/bitset sweep in EXPERIMENTS.md at `6a1bd4d`:
// the two cross between half a posting a unit and one). A sparser probe
// — rare terms only, or a large index — marks and drains by the bitset,
// so a probe's cost follows what it touched either way: drainDense
// never reads more cells than the probe accumulated postings. The
// choice reads nothing but the probe.
func denseProbe(postings int64, units int) bool { return postings >= int64(units) }

// drainTop empties the accumulator of a sparse exhaustive probe
// straight into the top-n heap: every touched unit in ascending order,
// each cell and touched word zeroed on the way, positive scores of
// non-excluded units offered behind one compare with bar — the higher of
// the probe's shared theta (nil on the unsharded path) and the heap's
// root once it holds topN units. A score equal to bar still goes on: to
// offerResult, whose order (worse) breaks the tie by unit, and to the
// merge. theta is re-read once per non-empty touched word, never per
// unit, and raised whenever the full heap's root passes it — only
// non-excluded units enter the heap, as Theta requires. It returns how
// many units had been touched and how many words and cells it read;
// units is the probed index's unit count.
func (acc *accumulator) drainTop(units, topN int, theta *Theta, exclude func(unit int) bool) (touchedUnits, visited int) {
	cells, top := acc.cells, acc.top[:0]
	var bar float64
	words := acc.touched[:(units+63)>>6]
	for w, word := range words {
		if word == 0 {
			continue
		}
		acc.touched[w] = 0
		touchedUnits += bits.OnesCount64(word)
		if theta != nil {
			bar = max(bar, theta.Load())
		}
		for ; word != 0; word &= word - 1 {
			u := w<<6 | bits.TrailingZeros64(word)
			s := cells[u]
			cells[u] = 0
			if s <= 0 || s < bar || (exclude != nil && exclude(u)) {
				continue
			}
			top, bar = offerTop(top, topN, u, s, bar, theta)
		}
	}
	acc.top = top
	return touchedUnits, len(words) + touchedUnits
}

// drainDense is drainTop for a dense probe: it walks the cells itself,
// 64 a block, and reads no mark — a cell is scored iff it is not zero
// (every contribution is positive). bar starts at the smallest positive
// float64 instead of zero, so the one compare s < bar turns away
// unscored cells and scores below the bound alike, and once the heap is
// full it is taken almost always (a test for s <= 0 of its own would
// mispredict on every other cell); theta is re-read once a block. A
// block is a fixed 64 cells — acquire sizes cells in whole blocks — so
// the last one may run past units into cells nothing has written, which
// read as unscored. The touched words the TF > 1 postings set are
// cleared with the cells. visited is units: the whole of the index,
// which denseProbe holds to the number of postings accumulated.
func (acc *accumulator) drainDense(units, topN int, theta *Theta, exclude func(unit int) bool) (touchedUnits, visited int) {
	top := acc.top[:0]
	bar := math.SmallestNonzeroFloat64
	for base := 0; base < units; base += 64 {
		block := (*[64]float64)(acc.cells[base:])
		if theta != nil {
			bar = max(bar, theta.Load())
		}
		for i, s := range block {
			touchedUnits += scored(s)
			if s < bar || (exclude != nil && exclude(base+i)) {
				continue
			}
			top, bar = offerTop(top, topN, base+i, s, bar, theta)
		}
		clear(block[:])
		acc.touched[base>>6] = 0
	}
	acc.top = top
	return touchedUnits, units
}

// scored is 1 for a cell a probe has added to and 0 for a clean one,
// without a branch: a positive float64's bits are a positive int64, and
// the sign of its negation is the count.
func scored(cell float64) int {
	return int(uint64(-int64(math.Float64bits(cell))) >> 63)
}

// offerTop offers a unit the drain let through to the top-n heap and
// lifts bar, and with it the probe's shared theta, to the root of the
// heap once it is full.
func offerTop(top []Result, topN, u int, s, bar float64, theta *Theta) ([]Result, float64) {
	top = offerResult(top, topN, Result{Unit: u, Score: s})
	if len(top) == topN && top[0].Score > bar {
		bar = top[0].Score
		if theta != nil {
			theta.Raise(bar)
		}
	}
	return top, bar
}

// finish is the tail of the scan: order the top-n a drain selected in
// top under the deterministic order (score descending, unit ascending),
// record the scan histograms and the optional trace event, and append
// the result list to dst, a new one when dst is nil. candidates is the
// number of units the probe accumulated a score for.
func (acc *accumulator) finish(dst []Result, candidates int, tr *obs.Trace) []Result {
	top := acc.top
	// Heapsort in place: the root is the worst retained result, so moving
	// it behind the shrinking heap leaves the slice best first.
	for n := len(top) - 1; n > 0; n-- {
		top[0], top[n] = top[n], top[0]
		siftDown(top[:n], 0)
	}
	histQueryCandidates.Observe(int64(candidates))
	histQueryResults.Observe(int64(len(top)))
	if tr != nil {
		hit := int64(0)
		if acc.hit {
			hit = 1
		}
		tr.Event("index.query",
			obs.N("candidates", int64(candidates)),
			obs.N("results", int64(len(top))),
			obs.N("pool_hit", hit))
	}
	if dst == nil {
		dst = make([]Result, 0, len(top))
	}
	return append(dst, top...)
}

// worse reports whether a ranks below b: lower score, higher unit id on
// equal scores — the reverse of match.Result.Before, so rankings never
// depend on the order candidates arrive in.
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Unit > b.Unit
}

// offerResult keeps the k best results seen in h, a min-heap with the
// worst retained result at the root, in storage pooled across probes.
func offerResult(h []Result, k int, r Result) []Result {
	if len(h) < k {
		h = append(h, r)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !worse(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	} else if worse(h[0], r) {
		h[0] = r
		siftDown(h, 0)
	}
	return h
}

func siftDown(h []Result, i int) {
	for {
		min := 2*i + 1
		if min >= len(h) {
			return
		}
		if right := min + 1; right < len(h) && worse(h[right], h[min]) {
			min = right
		}
		if !worse(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
