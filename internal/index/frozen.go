package index

import (
	"math"
	"sync/atomic"

	"repro/internal/obs"
)

// Frozen-factor scanning: the scatter half of the sharded serving
// layer. A scatter query scores the same probe against N partitions of
// one cluster index, and Eq 9's collection-level factors — each term's
// pIDF and the cluster's NU average — are identical on every partition
// (they come from the shared statistics pool, not the partition).
// FrozenScoring resolves those factors once, on the reference
// document's home shard; QueryFrozen then scans a partition using only
// shard-local state (postings, unit norms) under its owner's read lock,
// never touching the pool. Besides saving N − 1 resolutions per probe,
// this pins all N scatter legs to one view of the statistics even while
// concurrent adds move the pool — so the merged scores are mutually
// comparable, and bit-identical to the unsharded scan on a quiescent
// collection.

// FrozenScoring resolves the collection-level Eq 9 factors for a
// term list under one consistent view of the index and its statistics
// pool: idfs[i], appended to dst, is terms[i]'s smoothed pIDF (0 for
// unknown terms) and avgUnique is the cluster's NU average.
func (ix *Index) FrozenScoring(terms []int32, dst []float64) (idfs []float64, avgUnique float64) {
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	return ix.idfs(terms, dst), ix.avgUnique()
}

// QueryFrozen is Query with the collection-level factors supplied by
// the caller (see FrozenScoring): terms arrive as dictionary ids in
// ascending term order with aligned query frequencies qf and pIDFs
// idfs. The results are appended to dst, and a nil dst gets a list of
// its own, so a caller that reuses its buffer scans without allocating.
// Accumulation follows the supplied term order, so with factors
// frozen from the same collection state the scores are bit-identical to
// Query's. A non-nil tr records one "index.query" event: candidate-set
// width, result count, and whether the pooled accumulator served the
// probe without allocating.
//
// theta, when non-nil, is shared by every scatter leg of one probe: the
// scan discards what scores strictly below it and raises it to its own
// n-th best (see Theta). A nil theta is the unsharded scan.
func (ix *Index) QueryFrozen(dst []Result, terms []int32, qf, idfs []float64, avgUnique float64, topN int, theta *Theta, exclude func(unit int) bool, tr *obs.Trace) []Result {
	if topN <= 0 || len(ix.denoms) == 0 {
		return dst
	}
	return ix.scan(dst, acquire(len(ix.denoms)), terms, qf, idfs, avgUnique, topN, theta, exclude, tr)
}

// Theta is one probe's proven lower bound on the n-th best score of its
// merged list — the top-n over every partition's non-excluded units —
// shared by the scatter legs that answer the probe, in whatever order or
// overlap they run; the zero value is "none known". A leg raises it to its
// own n-th best over non-excluded units once it holds n of them: the
// merge is a top-n over a superset of those, so its n-th best is no
// lower. The bound only rises, and a unit scoring strictly below it would
// be cut by the merge whoever returned it, so a leg may drop it unseen; a
// unit scoring exactly the bound can still win its place on the id
// tie-break and must be returned. The merged list is therefore the same,
// bit for bit, under every interleaving of the legs.
type Theta struct{ bits atomic.Uint64 }

// Load returns the current bound, 0 when none is known.
func (t *Theta) Load() float64 { return math.Float64frombits(t.bits.Load()) }

// Raise lifts the bound to s unless it is already there or above.
func (t *Theta) Raise(s float64) {
	for {
		old := t.bits.Load()
		if math.Float64frombits(old) >= s || t.bits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}
