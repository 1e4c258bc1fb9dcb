package index

import "repro/internal/obs"

// Frozen-factor scanning: the scatter half of the sharded serving
// layer. A scatter query scores the same probe against N partitions of
// one cluster index, and Eq 9's collection-level factors — each term's
// pIDF and the cluster's NU average — are identical on every partition
// (they come from the shared statistics pool, not the partition).
// FrozenScoring resolves those factors once, on the reference
// document's home shard; QueryFrozen then scans a partition using only
// shard-local state (postings, unit norms) under the partition's own
// read lock, never touching the pool. Besides saving N − 1 resolutions
// per probe, this pins all N scatter legs to one view of the statistics
// even while concurrent adds move the pool — so the merged scores are
// mutually comparable, and bit-identical to the unsharded scan on a
// quiescent collection.

// FrozenScoring resolves the collection-level Eq 9 factors for a
// term list under one consistent view of the index and its statistics
// pool: idfs[i], appended to dst, is terms[i]'s smoothed pIDF (0 for
// unknown terms) and avgUnique is the cluster's NU average.
func (ix *Index) FrozenScoring(terms []int32, dst []float64) (idfs []float64, avgUnique float64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	return ix.idfsLocked(terms, dst), ix.avgUniqueLocked()
}

// QueryFrozen is Query with the collection-level factors supplied by
// the caller (see FrozenScoring): terms arrive as dictionary ids in
// ascending term order with aligned query frequencies qf and pIDFs
// idfs. Accumulation follows the supplied term order, so with factors
// frozen from the same collection state the scores are bit-identical to
// Query's. A non-nil tr records one "index.query" event: candidate-set
// width, result count, and whether the pooled accumulator served the
// probe without allocating.
//
// floor is an externally proven lower bound on the merged n-th best
// score, or 0 when none is known. The sharded coordinator seeds it from
// the reference document's home shard (whose leg runs first): the
// global n-th best list score is at least any one shard's local n-th
// best, so sibling legs may discard units that cannot reach it and
// still return exactly the entries that survive the Algorithm 1 merge.
func (ix *Index) QueryFrozen(terms []int32, qf, idfs []float64, avgUnique float64, topN int, floor float64, exclude func(unit int) bool, tr *obs.Trace) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if topN <= 0 || len(ix.denoms) == 0 {
		return nil
	}
	return ix.scanLocked(acquire(len(ix.denoms)), terms, qf, idfs, avgUnique, topN, floor, exclude, tr, ix.shouldPruneLocked(topN))
}
