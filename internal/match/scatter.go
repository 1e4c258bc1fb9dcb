package match

import (
	"sync"

	"repro/internal/index"
	"repro/internal/obs"
)

// This file is the matcher-side surface the sharded serving layer
// (internal/shard) builds on. A shard group answers one Related query by
// reading the reference document's Algorithm 1 probes from its owning
// shard (QuerySegs), scattering those probes to every shard
// (QueryClusterLists), and merging the per-shard lists globally before
// applying Algorithm 2. The probes carry term frequencies rather than
// unit ids because only the owning shard holds the reference document;
// every other shard scores the same terms against its own partition.

// ClusterQuery is one Algorithm 1 probe: the intention cluster to
// query, the reference segment's distinct terms — ids of the matcher's
// dictionary, which the shards of a group share — with their
// frequencies (f_sq of Eq 9), and the frozen scoring context — aligned
// pIDFs plus the cluster's NU average — resolved once on the reference
// document's home shard (see index.FrozenScoring). The collection-level
// factors are pool-global, so every shard scans with the same values;
// freezing them per probe keeps the scatter legs mutually consistent
// under concurrent adds and saves each leg the resolution.
type ClusterQuery struct {
	Cluster   int
	Terms     []int32   // ascending term (not id) order: the Eq 9 summation order
	QF        []float64 // aligned with Terms: f_sq(t)
	IDF       []float64 // aligned with Terms: pIDF(t), 0 for unknown terms
	AvgUnique float64   // the cluster's NU average
}

// Dict returns the dictionary the matcher's term ids — a probe's Terms —
// belong to: the string boundary for whoever ships probes elsewhere.
func (mr *MR) Dict() *index.Dict { return mr.dict }

// QuerySegs returns the Algorithm 1 probes for a document of this
// matcher: one ClusterQuery per intention cluster the document has a
// refined segment in, in ascending cluster order — the order Match sums
// Algorithm 2 contributions in, which the scatter-gather merge must
// reproduce for bit-identical float sums. It returns nil for unknown
// ids.
func (mr *MR) QuerySegs(docID int) []ClusterQuery {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	if docID < 0 || docID >= mr.segs.numDocs() {
		return nil
	}
	return mr.probesLocked(docID)
}

// probesLocked resolves the frozen Algorithm 1 probes for a document's
// refined segments — the shared core of QuerySegs and Match. The probes'
// columns are cut from four arrays sized by the document's token count:
// four allocations however many segments. Callers hold the read lock.
func (mr *MR) probesLocked(docID int) []ClusterQuery {
	rows := mr.segs.rows(docID)
	out := make([]ClusterQuery, rows.n)
	// The document's tokens, decoded row by row to be sorted and
	// compacted in place.
	ids := make([]int32, 0, mr.segs.numTokens(docID))
	tf := make([]int32, 0, cap(ids))
	floats := make([]float64, 2*cap(ids))
	names := mr.dict.Terms()
	for i := range out {
		row := len(ids)
		var c int
		c, ids = rows.next(ids)
		terms, counts := index.CountTerms(names, ids[row:], tf)
		n := len(terms)
		qf := floats[:n:n]
		for j, c := range counts {
			qf[j] = float64(c)
		}
		idfs, avg := mr.clusters[c].FrozenScoring(terms, floats[n:n:2*n])
		floats = floats[2*n:]
		out[i] = ClusterQuery{Cluster: c, Terms: terms, QF: qf, IDF: idfs, AvgUnique: avg}
	}
	return out
}

// QueryClusterLists answers a set of Algorithm 1 probes against this
// matcher's cluster indices: lists[i] holds the top-n units of probe
// i's cluster mapped to the (shard-local) documents owning them, in
// descending score order with ascending document id on ties. The
// mapping preserves the index tie-break exactly: within a cluster,
// units are assigned in ascending document order (build walks documents
// ascending; commits append), so ascending unit id and ascending owner
// id coincide. excludeDoc, when non-negative, is dropped from every
// list — the scatter layer passes the reference document's local id on
// its owning shard and -1 elsewhere. Probes whose cluster id is out of
// range yield nil lists. The lists are windows of one array, each
// capped at its own end.
//
// Probes run one after the other under one read-lock acquisition, the
// loop Match runs too (clusterListsLocked): the single lock hold gives
// the probes one consistent view of this shard.
//
// thetas, when non-nil, carries one index.Theta per probe, shared by
// every shard's call for the same probes: each scan discards what cannot
// reach the globally merged list's top n and raises the bound for the
// others. A nil thetas scans unbounded. A Theta only ever removes entries
// the global merge would cut anyway, so the merged lists — and the final
// ranking — are unchanged.
func (mr *MR) QueryClusterLists(probes []ClusterQuery, n, excludeDoc int, thetas []index.Theta, tr *obs.Trace) [][]Result {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	return mr.clusterListsLocked(probes, n, excludeDoc, thetas, tr)
}

// clusterListsLocked is QueryClusterLists' body; callers hold at least
// the read lock.
func (mr *MR) clusterListsLocked(probes []ClusterQuery, n, excludeDoc int, thetas []index.Theta, tr *obs.Trace) [][]Result {
	lists := make([][]Result, len(probes))
	// A list holds at most n units and at most its cluster's, which
	// cannot grow under the read lock: the array is never outgrown.
	size := 0
	for _, q := range probes {
		if q.Cluster >= 0 && q.Cluster < len(mr.clusters) && n > 0 {
			size += min(n, len(mr.unitDoc[q.Cluster]))
		}
	}
	flat := make([]Result, 0, size)
	scratch := unitLists.Get().(*[]index.Result)
	for i, q := range probes {
		if q.Cluster < 0 || q.Cluster >= len(mr.clusters) {
			continue
		}
		owners := mr.unitDoc[q.Cluster]
		var exclude func(int) bool
		if excludeDoc >= 0 {
			// The refined index holds at most one unit per (doc, cluster),
			// so excluding by owner is exactly the unsharded own-unit skip.
			exclude = func(u int) bool { return int(owners[u]) == excludeDoc }
		}
		var theta *index.Theta
		if i < len(thetas) {
			theta = &thetas[i]
		}
		units := mr.clusters[q.Cluster].QueryFrozen((*scratch)[:0], q.Terms, q.QF, q.IDF, q.AvgUnique, n, theta, exclude, tr)
		start := len(flat)
		for _, r := range units {
			flat = append(flat, Result{DocID: int(owners[r.Unit]), Score: r.Score})
		}
		lists[i] = flat[start:len(flat):len(flat)]
		*scratch = units
	}
	unitLists.Put(scratch)
	return lists
}

// unitLists pools the buffer clusterListsLocked scans a probe's units
// into before mapping them to their documents.
var unitLists = sync.Pool{New: func() any { return new([]index.Result) }}
