// Package shard is the horizontally partitioned serving layer: it
// splits one built match.MR collection across N independent shard
// matchers by deterministic document-id routing, answers Related
// queries by scattering Algorithm 1's per-intention-cluster probes to
// every shard in turn, on the request's goroutine, and merging the
// per-shard candidate lists that arrive sorted, and routes each Add to
// exactly one shard — so writers contend on 1/N of the corpus and
// readers of the other shards never block on a commit.
//
// The load-bearing guarantee is exact equivalence with the unsharded
// path: for the same collection and the same query, a Group returns
// bit-identical scores and the identical ranking (under the documented
// tie-break) that the single match.MR returns. Three mechanisms carry
// the proof, each tested in this package and below it:
//
//  1. Global statistics. Eq 7–9 scores depend on three
//     collection-level quantities — the unit count N, the per-term
//     document frequency, and the average unique-term count. Every
//     shard's cluster index is attached to a shared
//     index.GlobalStats pool, so shards score against the whole
//     collection's statistics, not their partition's.
//  2. Global list cuts. Algorithm 1's top-n cut must be applied to
//     each intention list globally: the merge takes the first n of
//     the per-shard top-n lists of each cluster merged in order (the
//     global top-n is a subset of the union of per-shard top-n lists,
//     because restriction preserves a total order), and only
//     then runs Algorithm 2's summation — in the same ascending
//     cluster order and the same descending (score, ascending id)
//     within-list order as the unsharded path, so the float sums are
//     bit-identical.
//  3. Order-preserving ids. The tie-break (score descending, document
//     id ascending) survives sharding because shard-local ids ascend
//     with global ids: Split walks documents in ascending global
//     order, and Add serializes commit+registration so same-shard
//     commit order equals global-id order. Mapping a shard's
//     (score, local id) list to global ids is therefore monotone: the
//     lists stay sorted, and their merge reproduces the unsharded
//     ordering exactly.
//
// Routing is a pure integer function of (seed, doc id) — a
// splitmix64-style mix — so it is platform-stable and reconstructible
// from the seed and document count a snapshot records (see persist.go).
package shard

import (
	"fmt"
	"sync"

	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/segment"
)

// Group-level observability. shard.related times the whole
// scatter-gather query; shard.merge.candidates sizes the Algorithm 2
// merge input (the union of the merged per-cluster lists). Per-shard
// instruments (shard.NN.query spans, shard.NN.queries/adds counters,
// shard.NN.width histograms) are created per Group via the GetOrNew
// registrars, since several groups may live in one process.
var (
	spanRelated = obs.NewSpan("shard.related")
	histMerge   = obs.NewCountHistogram("shard.merge.candidates")
)

// Group serves one logical collection partitioned across n shard
// matchers.
//
// Locking model: each shard carries one RWMutex (match.MR's, the only
// lock its cluster indices run under), the statistics pools their own
// (index.GlobalStats, always taken inside a shard's: MR.mu →
// GlobalStats.mu), and the id Directory its own; the Group adds one.
// addMu serializes the whole commit+register step of Add — it is what
// keeps same-shard local ids ascending in global-id order (invariant 3
// of the package comment); queries never touch it, so Related is
// blocked only by the owning shard's own commit, never by writes to
// other shards. A document is guaranteed visible to queries once Add
// returns; in the microseconds between a shard commit and directory
// registration, the merge simply skips the not-yet-registered local id.
type Group struct {
	cfg       match.MRConfig
	n         int
	shards    []*match.MR
	centroids [][]float64
	dir       *Directory

	addMu sync.Mutex // serializes Add commit+register; see type comment

	spanQuery  []*obs.Span      // shard.NN.query: per-shard scatter leg latency
	ctrQueries []*obs.Counter   // shard.NN.queries: scatter legs answered
	ctrAdds    []*obs.Counter   // shard.NN.adds: documents committed
	histWidth  []*obs.Histogram // shard.NN.width: candidate width contributed per query
}

// routeDoc maps a global document id to its shard: a splitmix64-style
// finalizer over (seed + id), reduced modulo n. Pure integer math, so
// the same (seed, id, n) routes identically on every platform and
// process — the property a loaded snapshot relies on to reconstruct the
// directory.
func routeDoc(seed uint64, doc, n int) int {
	x := seed + uint64(doc)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// NewGroup partitions a built matcher into n shards routed by seed.
// The source matcher is read, not consumed; it shares immutable state
// (centroids, configuration) and its term dictionary with the shards but
// no index or serving state, so callers typically drop it to avoid
// holding two copies of the postings.
func NewGroup(mr *match.MR, n int, seed uint64) (*Group, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: group needs at least 1 shard, got %d", n)
	}
	stats := newPools(mr.NumClusters())
	shards, err := mr.Split(n, func(d int) int { return routeDoc(seed, d, n) }, stats)
	if err != nil {
		return nil, err
	}
	g := newGroup(shards, seed)
	g.dir.Grow(mr.NumDocs())
	return g, nil
}

// newPools returns one empty statistics pool per intention cluster.
func newPools(clusters int) []*index.GlobalStats {
	stats := make([]*index.GlobalStats, clusters)
	for c := range stats {
		stats[c] = index.NewGlobalStats()
	}
	return stats
}

// newGroup assembles a Group around existing shards (fresh from Split
// or loaded from disk) and resolves its per-shard instruments.
func newGroup(shards []*match.MR, seed uint64) *Group {
	n := len(shards)
	g := &Group{
		cfg:       shards[0].Config(),
		n:         n,
		shards:    shards,
		centroids: shards[0].Centroids(),
		dir:       NewDirectory(seed, n),

		spanQuery:  make([]*obs.Span, n),
		ctrQueries: make([]*obs.Counter, n),
		ctrAdds:    make([]*obs.Counter, n),
		histWidth:  make([]*obs.Histogram, n),
	}
	for s := 0; s < n; s++ {
		lbl := fmt.Sprintf("shard.%02d", s)
		g.spanQuery[s] = obs.GetOrNewSpan(lbl + ".query")
		g.ctrQueries[s] = obs.GetOrNewCounter(lbl + ".queries")
		g.ctrAdds[s] = obs.GetOrNewCounter(lbl + ".adds")
		g.histWidth[s] = obs.GetOrNewCountHistogram(lbl + ".width")
	}
	return g
}

// Name implements match.Matcher; a group serves under its shards'
// method name (the partitioning is topology, not a different method).
func (g *Group) Name() string { return g.shards[0].Name() }

// NumShards returns the shard count.
func (g *Group) NumShards() int { return g.n }

// Seed returns the routing seed (persisted in a snapshot's head).
func (g *Group) Seed() uint64 { return g.dir.seed }

// Route returns the shard that owns (or will own) global document id
// doc.
func (g *Group) Route(doc int) int { return g.dir.Route(doc) }

// ShardMR returns shard s's matcher. The fleet layer uses it to serve a
// live group's partitions over the network probe surface; the matcher
// carries its own locks, so concurrent Group.Add and direct probe reads
// are safe.
func (g *Group) ShardMR(s int) *match.MR { return g.shards[s] }

// NumDocs returns the number of documents across all shards.
func (g *Group) NumDocs() int { return g.dir.NumDocs() }

// ShardDocs returns the per-shard document counts.
func (g *Group) ShardDocs() []int { return g.dir.ShardDocs() }

// NumClusters returns the intention-cluster count (identical on every
// shard).
func (g *Group) NumClusters() int { return g.shards[0].NumClusters() }

// Centroids returns the frozen intention-cluster centroids (shared by
// all shards).
func (g *Group) Centroids() [][]float64 { return g.centroids }

// Generation returns the group-wide mutation count: the sum of every
// shard's matcher generation. CommitAdd commits into exactly one shard
// and bumps that shard's generation, so the sum advances on every
// mutation regardless of routing — the property a cache epoch needs.
// Summing over lock-free per-shard atomics means a concurrent commit
// may or may not be included, but a reader that observes the commit's
// effects afterwards also observes the larger sum (the shard bump
// happens under the shard's write lock, before the effects are
// readable).
func (g *Group) Generation() uint64 {
	var gen uint64
	for _, mr := range g.shards {
		gen += mr.Generation()
	}
	return gen
}

// SegmentCounts returns each document's segment count before grouping
// and after refinement in global id order — the Table 3 view, merged
// back from the per-shard counts.
func (g *Group) SegmentCounts() (before, after []int) {
	// Read the directory size before the shard counts: registration
	// happens strictly after the shard commit, so every id below it has
	// its counts in the shard snapshots taken afterwards.
	numDocs := g.dir.NumDocs()
	perB := make([][]int, g.n)
	perA := make([][]int, g.n)
	for s := 0; s < g.n; s++ {
		perB[s], perA[s] = g.shards[s].SegmentCounts()
	}
	before = make([]int, numDocs)
	after = make([]int, numDocs)
	for gid := range before {
		s, l, _ := g.dir.Lookup(gid)
		before[gid], after[gid] = perB[s][l], perA[s][l]
	}
	return before, after
}

// Match implements match.Matcher.
func (g *Group) Match(docID, k int) []match.Result { return g.MatchTraced(docID, k, nil) }

// gather runs the scatter-gather front half shared by MatchTraced and
// MatchExplained: resolve the reference document, scatter its probes,
// and hand the per-shard lists to the Directory's merge. ok is false
// for unknown document ids.
func (g *Group) gather(docID, k int, tr *obs.Trace) (probes []match.ClusterQuery, lists []MergedList, scores map[int]float64, ok bool) {
	home, localQ, ok := g.dir.Lookup(docID)
	if !ok {
		return nil, nil, nil, false
	}

	probes = g.shards[home].QuerySegs(localQ)
	n := g.cfg.ListDepth(k)

	// Scatter: every shard answers every probe at the full unsharded
	// depth n (invariant 2 of the package comment needs the union of
	// per-shard top-n lists to cover the global top-n), one leg after the
	// other under one shared index.Theta per probe, which each leg hands
	// on raised to what it found. A leg's n-th best score over
	// non-excluded units is a lower bound on the merged list's n-th score
	// (the merge is a top-n over a superset of the leg's candidates), so
	// every leg raises the Theta to it and discards what scores strictly
	// below the Theta it reads — entries the merge would cut whichever leg
	// returned them, so the merged lists are the same bit for bit in every
	// order and overlap of the legs. Probes carry factors frozen on the
	// home shard, so one leg's bound stays comparable to another's scores
	// even while concurrent adds move the statistics pool.
	perShard := make([][][]match.Result, g.n)
	thetas := make([]index.Theta, len(probes))
	for s := range perShard {
		st := g.spanQuery[s].Start()
		excl := -1
		if s == home {
			excl = localQ
		}
		perShard[s] = g.shards[s].QueryClusterLists(probes, n, excl, thetas, tr)
		st.Stop()
		g.ctrQueries[s].Inc()
		w := 0
		for _, l := range perShard[s] {
			w += len(l)
		}
		g.histWidth[s].Observe(int64(w))
		if tr != nil {
			tr.Event("shard.list", obs.N("shard", int64(s)), obs.N("width", int64(w)))
		}
	}

	clusters := make([]int, len(probes))
	for i, q := range probes {
		clusters[i] = q.Cluster
	}
	lists, scores = g.dir.Merge(clusters, n, perShard, tr)
	return probes, lists, scores, true
}

// MatchTraced answers one top-k query over the whole sharded
// collection — scatter, merge, Algorithm 2 — recording per-shard and
// merge events into tr when non-nil. The result is bit-identical in
// scores and identical in order to the unsharded matcher's
// MatchTraced for the same collection.
func (g *Group) MatchTraced(docID, k int, tr *obs.Trace) []match.Result {
	out, _ := g.match(docID, k, tr, false)
	return out
}

// MatchExplained implements match.Explainer: the scatter-gather query
// with every result's score decomposed into per-intention-cluster
// contributions and term-level Eq 7–9 products, fetched from the
// owning shard's pool-attached indices — so the factors reconcile with
// the served scores exactly as on the unsharded path.
func (g *Group) MatchExplained(docID, k int, tr *obs.Trace) ([]match.Result, []match.Explanation) {
	return g.match(docID, k, tr, true)
}

// match is the one query path behind MatchTraced and MatchExplained.
func (g *Group) match(docID, k int, tr *obs.Trace, explain bool) ([]match.Result, []match.Explanation) {
	if k <= 0 {
		return nil, nil
	}
	tm := spanRelated.Start()
	defer tm.Stop()
	probes, lists, scores, ok := g.gather(docID, k, tr)
	if !ok {
		return nil, nil
	}
	out := match.TopKScores(scores, k, docID)
	if tr != nil {
		tr.Event("shard.topk", obs.N("results", int64(len(out))))
	}
	if !explain {
		return out, nil
	}
	exps, summands := Explain(lists, out)
	for _, sm := range summands {
		s, l, _ := g.dir.Lookup(out[sm.Result].DocID)
		exps[sm.Result].Clusters[sm.Slot].Terms = g.shards[s].ExplainDocCluster(l, probes[sm.Probe])
	}
	return out, exps
}

// PrepareAdd segments and vectorizes a new document without touching
// any shard's serving state. Preparation reads only configuration and
// the frozen centroids — state every shard shares — so it is valid for
// whichever shard the document ultimately routes to. Commit on the
// result runs the group's commit, so a caller holds a group's pending
// document exactly as it holds a single matcher's.
func (g *Group) PrepareAdd(d *segment.Doc) *match.PendingAdd {
	return g.shards[0].PrepareAdd(d).CommitVia(g.commit)
}

// commit assigns the next global document id, commits the prepared
// document into its owning shard, and registers it in the directory.
// The whole step runs under addMu so same-shard local ids ascend in
// global-id order (the tie-break invariant); the serialized section is
// a few appends — the expensive preparation already happened — and
// only the owning shard's write lock is taken, so readers of other
// shards proceed untouched.
func (g *Group) commit(pending *match.PendingAdd) int {
	g.addMu.Lock()
	defer g.addMu.Unlock()
	gid := g.dir.NumDocs()
	s := g.dir.Route(gid)
	pending.CommitTo(g.shards[s])
	g.dir.Grow(gid + 1)
	g.ctrAdds[s].Inc()
	return gid
}

// Add ingests one new document: prepare (lock-free), commit to the
// owning shard, register. It returns the global document id; the
// document is visible to every subsequent query.
func (g *Group) Add(d *segment.Doc) int {
	return g.PrepareAdd(d).Commit()
}
