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
// read lock, never touching the pool. Besides not paying the sort, the
// pIDF cache lookups, and the pool read-lock N times per probe, this
// pins all N scatter legs to one consistent view of the collection
// statistics even while concurrent adds move the pool — so the merged
// scores are always mutually comparable, and bit-identical to the
// unsharded scan on a quiescent collection.

// FrozenScoring resolves the collection-level Eq 9 factors for a
// sorted term list under one consistent view of the index and its
// statistics pool: idfs[i] is terms[i]'s smoothed pIDF (0 for unknown
// terms) and avgUnique is the cluster's NU average.
func (ix *Index) FrozenScoring(terms []string) (idfs []float64, avgUnique float64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	avgUnique = ix.avgUniqueLocked()
	idfs = make([]float64, len(terms))
	// Compute pIDF directly rather than through the idfCache: a mixed
	// serving load invalidates cached entries on every add (the pooled n
	// moves), so the cache would allocate a fresh entry per term per
	// probe without ever hitting.
	n := ix.nLocked()
	for i, t := range terms {
		idfs[i] = idf(n, ix.dfLocked(t, ix.postings[t]))
	}
	return idfs, avgUnique
}

// QueryFrozen is QueryTraced with the collection-level factors supplied
// by the caller (see FrozenScoring): terms arrive pre-sorted with
// aligned query frequencies qf and pIDFs idfs. Accumulation follows the
// supplied term order, so with factors frozen from the same collection
// state the scores are bit-identical to QueryTraced's.
//
// floor is an externally proven lower bound on the merged n-th best
// score, or 0 when none is known. The sharded coordinator seeds it from
// the reference document's home shard (whose leg runs first): the
// global n-th best list score is at least any one shard's local n-th
// best, so sibling legs may discard units that cannot reach it — they
// would be cut from the merged list anyway — and still return exactly
// the entries that survive the Algorithm 1 merge.
func (ix *Index) QueryFrozen(terms []string, qf, idfs []float64, avgUnique float64, topN int, floor float64, exclude func(unit int) bool, tr *obs.Trace) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if topN <= 0 || len(ix.units) == 0 {
		return nil
	}
	return ix.scanLocked(acquire(len(ix.units)), terms, qf, idfs, avgUnique, topN, floor, exclude, tr, ix.shouldPruneLocked(topN))
}
