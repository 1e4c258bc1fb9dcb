package shard

import (
	"sync"

	"repro/internal/match"
	"repro/internal/obs"
)

// Directory is the global↔local document-id directory of one sharded
// collection, and the merge that reads it. Routing is a pure function
// of (seed, id, n), so the directory is never persisted or shipped: the
// in-process Group and the networked coordinator (internal/fleet) each
// replay it from a seed and a document count. Registration order is
// global-id order, which keeps shard-local ids ascending with global
// ids — invariant 3 of the package comment. Safe for concurrent use;
// a writer serializes Grow with its commit itself (Group.addMu).
type Directory struct {
	seed uint64
	n    int

	mu     sync.RWMutex
	owner  []int32   // global doc id → owning shard
	local  []int32   // global doc id → shard-local doc id
	global [][]int32 // shard → local doc id → global doc id
}

// NewDirectory returns the empty directory of an n-shard collection
// routed by seed.
func NewDirectory(seed uint64, n int) *Directory {
	return &Directory{seed: seed, n: n, global: make([][]int32, n)}
}

// Route returns the shard that owns (or will own) global document id
// doc.
func (d *Directory) Route(doc int) int { return routeDoc(d.seed, doc, d.n) }

// Grow registers global ids up to a collection of docs documents by
// routing replay and reports whether the directory grew.
func (d *Directory) Grow(docs int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	grew := docs > len(d.owner)
	for gid := len(d.owner); gid < docs; gid++ {
		s := d.Route(gid)
		d.owner = append(d.owner, int32(s))
		d.local = append(d.local, int32(len(d.global[s])))
		d.global[s] = append(d.global[s], int32(gid))
	}
	return grew
}

// NumDocs returns the number of registered documents.
func (d *Directory) NumDocs() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.owner)
}

// ShardDocs returns the per-shard registered document counts.
func (d *Directory) ShardDocs() []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]int, d.n)
	for s := range out {
		out[s] = len(d.global[s])
	}
	return out
}

// Lookup resolves a registered global document id to its owning shard
// and shard-local id; ok is false for ids the directory does not hold.
// The registered count is the largest collection size any shard has
// reported (Grow), so an id at or past it cannot exist as far as this
// reader has been told. Requests name the id: it must stay a table
// read, never a routing replay up to the id.
func (d *Directory) Lookup(doc int) (shard, local int, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if doc < 0 || doc >= len(d.owner) {
		return 0, 0, false
	}
	return int(d.owner[doc]), int(d.local[doc]), true
}

// MergedList is one intention cluster's globally merged candidate list:
// Items carry global document ids best first under match.Result.Before,
// cut to the global top-n.
type MergedList struct {
	Cluster int
	Items   []match.Result
}

// Merge is the gather half of a scatter-gather query, for Group and the
// fleet coordinator alike. perShard[s][i] is shard s's top-n answer to
// probe i (shard-local ids; clusters[i] names the probe's intention
// cluster); a nil perShard[s] is a shard that did not answer, and the
// result is then the exact merge over the rest. Every list arrives best
// first, and local ids ascend with global ids, so it stays best first in
// global ids: per probe the merge takes the best head n times, and
// Algorithm 2 sums each entry as it is taken — probes in ascending
// order, as the unsharded walk, so the float sums are bit-identical. A
// local id committed on its shard but not yet registered here is
// skipped. The fleet coordinator checks the lists it merges first.
func (d *Directory) Merge(clusters []int, n int, perShard [][][]match.Result, tr *obs.Trace) ([]MergedList, map[int]float64) {
	scores := make(map[int]float64, n*len(clusters))
	lists := make([]MergedList, len(clusters))
	items := make([]match.Result, 0, n*len(clusters)) // one array; each list is a window
	heads := make([]int, len(perShard))
	d.mu.RLock()
	for i, cluster := range clusters {
		clear(heads)
		start := len(items)
		for len(items)-start < n {
			best, from := match.Result{}, -1
			for s, answered := range perShard {
				if answered == nil {
					continue
				}
				l, glb := answered[i], d.global[s]
				for heads[s] < len(l) && l[heads[s]].DocID >= len(glb) {
					heads[s]++ // not registered yet
				}
				if heads[s] == len(l) {
					continue
				}
				head := match.Result{DocID: int(glb[l[heads[s]].DocID]), Score: l[heads[s]].Score}
				if from < 0 || head.Before(best) {
					best, from = head, s
				}
			}
			if from < 0 {
				break
			}
			heads[from]++
			items = append(items, best)
			scores[best.DocID] += best.Score
		}
		lists[i] = MergedList{Cluster: cluster, Items: items[start:len(items):len(items)]}
		if tr != nil { // each leg traces its own list widths
			tr.Event("shard.merge", obs.N("cluster", int64(cluster)), obs.N("kept", int64(len(lists[i].Items))))
		}
	}
	d.mu.RUnlock()
	histMerge.Observe(int64(len(scores)))
	return lists, scores
}

// Summand places one Algorithm 2 summand of an explained result:
// Explanation[Result].Clusters[Slot] was summed from merged list Probe.
type Summand struct{ Result, Slot, Probe int }

// Explain decomposes each result's score over the merged lists it was
// summed from, one ClusterContribution a list in probe order, for Group
// and the coordinator alike; they fetch the term breakdowns the
// summands name from the result's owning shard.
func Explain(lists []MergedList, results []match.Result) ([]match.Explanation, []Summand) {
	exps := make([]match.Explanation, len(results))
	var summands []Summand
	for ri, r := range results {
		exps[ri] = match.Explanation{DocID: r.DocID, Score: r.Score}
		for i, ml := range lists {
			for _, it := range ml.Items {
				if it.DocID == r.DocID {
					summands = append(summands, Summand{Result: ri, Slot: len(exps[ri].Clusters), Probe: i})
					exps[ri].Clusters = append(exps[ri].Clusters, match.ClusterContribution{Cluster: ml.Cluster, Score: it.Score})
					break
				}
			}
		}
	}
	return exps, summands
}
