package match

import (
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cm"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/segment"
)

// Observability instruments for the offline build and the online query
// path. The build.* spans are the primary measurement of the per-phase
// build timings — BuildStats is derived from the same StartAlways/Stop
// pair, so the phase accounting works with any obs sink state — and map
// onto the paper's Fig 11 phases (see EXPERIMENTS.md, "obs span names"):
// build.segment is Fig 11(a), build.vectorize + build.cluster +
// build.refine make up Fig 11(b), and match.query is the per-query
// latency behind Fig 11(c). Recording is free when obs is disabled.
var (
	spanBuildSegment   = obs.NewSpan("build.segment")
	spanBuildVectorize = obs.NewSpan("build.vectorize")
	spanBuildCluster   = obs.NewSpan("build.cluster")
	spanBuildRefine    = obs.NewSpan("build.refine")
	spanBuildIndex     = obs.NewSpan("build.index")

	spanQuery           = obs.NewSpan("match.query")
	histQueryLists      = obs.NewCountHistogram("match.query.lists")
	histQueryCandidates = obs.NewCountHistogram("match.query.candidates")

	spanAddPrepare = obs.NewSpan("match.add.prepare")
	spanAddCommit  = obs.NewSpan("match.add.commit")
)

// MRConfig configures a multi-ranking matcher (the "MR" of the method
// names in Table 4). The three MR methods of the paper differ only in
// Strategy and vector space:
//
//	IntentIntent-MR: Strategy = segment.Greedy{},   CM vectors + DBSCAN
//	SentIntent-MR:   Strategy = segment.Sentences{}, CM vectors + DBSCAN
//	Content-MR:      Strategy = segment.TextTiling{}, ContentVectors + k-means
type MRConfig struct {
	// Strategy selects segment borders. segment.Greedy{} when nil.
	Strategy segment.Strategy
	// ContentVectors switches the segment representation from the 28-dim CM
	// weight vectors (Eq 5/6) to hashed TF/IDF term vectors, and the grouper
	// from DBSCAN to k-means — the Content-MR configuration.
	ContentVectors bool
	// ContentK is the k-means cluster count for ContentVectors. 8 when 0.
	ContentK int
	// Eps is DBSCAN's radius; estimated from the data when 0.
	Eps float64
	// MinPts is DBSCAN's density threshold. 4 when 0.
	MinPts int
	// SampleSize bounds the exact-DBSCAN core (cluster.Sampled). 2000 when 0.
	SampleSize int
	// KeepNoise leaves DBSCAN noise segments outside all intention
	// clusters instead of assigning them to the nearest centroid.
	KeepNoise bool
	// Grouper selects the segment-grouping algorithm for CM vectors.
	Grouper Grouping
	// KMeansK is the cluster count for GroupKMeans on CM vectors; it
	// should approximate the expected number of intention categories.
	// 6 when 0.
	KMeansK int
	// FullVectors clusters the concatenated Eq 5+6 vectors (the paper's 28
	// elements) instead of the Eq 5 within-segment half alone. The Eq 6
	// half encodes document structure, which on template-generated corpora
	// adds within-intention variance, so the default clusters Eq 5 only;
	// set FullVectors for the paper's exact representation.
	FullVectors bool
	// NFactor sets the per-intention list length n = NFactor·k of
	// Algorithm 2; the paper found n = 2k best. 2 when 0.
	NFactor int
	// ScoreThreshold switches Algorithm 2 from fixed-length top-n lists to
	// threshold selection (the Fagin-style alternative the paper mentions
	// in Sec 7): each intention list keeps every result scoring at least
	// ScoreThreshold times the list's best score. 0 keeps the paper's
	// top-n selection.
	ScoreThreshold float64
	// NormalizeLists divides each per-intention list's scores by the
	// list's top score before Algorithm 2's summation. The paper sums raw
	// scores, which is the default here too — the ablation benchmarks show
	// normalization consistently loses (informative-intention lists gain
	// as much weight as the decisive request list).
	NormalizeLists bool
	// Seed drives k-means initialization.
	Seed int64
	// Workers bounds build parallelism. NumCPU when 0.
	Workers int
}

// Grouping selects how CM segment vectors are grouped into intention
// clusters.
type Grouping int

const (
	// GroupKMeans clusters with k-means (KMeansK clusters). It is the
	// pipeline default: the synthetic corpora's template grammar quantizes
	// CM vectors into many small dense islands, which fragments
	// density-based clustering into 15-20 micro-clusters and splits
	// same-intention segments apart; k-means at the expected intention
	// count recovers the paper's 3-6 coherent clusters (see DESIGN.md,
	// Substitutions).
	GroupKMeans Grouping = iota
	// GroupDBSCAN clusters with DBSCAN — the paper's configuration,
	// kept for the ablation benchmarks.
	GroupDBSCAN
)

// ListDepth returns Algorithm 1's per-intention list length for a top-k
// request: n = NFactor·k, or 10·k under threshold selection (which
// needs deeper lists to cut from). It is exported so the sharding layer
// probes every shard at exactly the depth the unsharded query path
// uses — the global top-n of each intention list is then a subset of
// the union of the per-shard top-n lists, which is what makes the
// scatter-gather merge ranking-equivalent. The receiver must be a
// defaults-applied config (MR.Config returns one).
func (c MRConfig) ListDepth(k int) int {
	if c.ScoreThreshold > 0 {
		return 10 * k
	}
	return c.NFactor * k
}

// TrimParams returns the Algorithm 2 list post-processing parameters
// for an intention list whose best (first) score is best: cut is the
// minimum score kept (negative infinity when no threshold is
// configured), and norm the divisor applied to every kept score (1
// unless NormalizeLists). Match and the sharded merge path share this
// so a threshold/normalization configuration trims the globally merged
// list exactly as the unsharded path trims its local one.
func (c MRConfig) TrimParams(best float64) (cut, norm float64) {
	cut = math.Inf(-1)
	if c.ScoreThreshold > 0 {
		cut = c.ScoreThreshold * best
	}
	norm = 1
	if c.NormalizeLists && best > 0 {
		norm = best
	}
	return cut, norm
}

func (c MRConfig) withDefaults() MRConfig {
	if c.Strategy == nil {
		c.Strategy = segment.Greedy{}
	}
	if c.KMeansK <= 0 {
		c.KMeansK = 6
	}
	if c.ContentK <= 0 {
		c.ContentK = 8
	}
	if c.MinPts <= 0 {
		c.MinPts = 4
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 2000
	}
	if c.NFactor <= 0 {
		c.NFactor = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// BuildStats reports where offline preprocessing time went — the
// quantities behind Fig 11(a,b) and Table 6. Grouping is the Fig 11(b)
// total; Vectorization, Clustering, and Refinement are its sub-phases
// (Refinement covers the sort-based (doc, cluster) grouping; the merged
// term materialization happens inside the parallel per-cluster indexing
// pass and is accounted under Indexing).
type BuildStats struct {
	Segmentation  time.Duration // total, all documents — Fig 11(a)
	Vectorization time.Duration // segment weight vectors (Eq 5/6)
	Clustering    time.Duration // eps estimation + DBSCAN/k-means + centroids
	Refinement    time.Duration // sort-based (doc, cluster) grouping
	Grouping      time.Duration // vectorization + clustering + refinement — Fig 11(b)
	Indexing      time.Duration // per-cluster index construction
	NumSegments   int           // before refinement
	NumClusters   int
	// NoiseCount is the number of DBSCAN noise labels as clustered, before
	// any reassignment — the outlier count of the grouping step (it feeds
	// the Table 3 granularity shift: noise segments drop out of the
	// refined counts only when KeepNoise is set). NoiseReassigned is how
	// many of those the KeepNoise=false path folded into their nearest
	// centroid afterwards; NoiseCount−NoiseReassigned segments remain
	// outside every intention cluster. Earlier versions reported only the
	// pre-reassignment count, which overstated surviving noise whenever
	// KeepNoise was false.
	NoiseCount      int
	NoiseReassigned int
}

// docSeg is one refined segment of a document: its intention cluster, its
// unit id inside that cluster's index, and its terms (kept for query-time
// TF computation).
type docSeg struct {
	cluster int
	unit    int
	terms   []string
}

// MR is a built multi-ranking matcher.
//
// Locking model: mu guards the mutable serving state — docSegs, unitDoc,
// before/after, and stats, which incremental Add appends to. Match,
// WriteTo, and every accessor hold the read lock for their full duration;
// Add commits its mutations under the write lock (the expensive
// segmentation and vectorization happen before the lock is taken, see
// PrepareAdd). The per-cluster indices carry their own RWMutex; the lock
// order is always MR.mu before Index.mu, never the reverse. name, cfg,
// clusters (the slice itself), and centroids are immutable once the
// matcher is built or loaded — SetStrategy is the one exception and must
// be called before concurrent use begins.
type MR struct {
	name string
	cfg  MRConfig

	// gen counts committed mutations. Every CommitTo bumps it, so a
	// serving layer can key cached results by generation and have any
	// mutation invalidate them without coordination (Eq 9's global
	// statistics shift on every add, so no pre-add result survives one).
	// Atomic rather than mu-guarded: readers poll it on every request
	// and must not contend with the write lock.
	gen atomic.Uint64

	mu        sync.RWMutex
	clusters  []*index.Index
	unitDoc   [][]int // unitDoc[c][u] = document owning unit u of cluster c
	docSegs   [][]docSeg
	before    []int // per-doc segment count before grouping (Table 3)
	after     []int // per-doc segment count after refinement (Table 3)
	centroids [][]float64
	stats     BuildStats
}

// rawSeg is one pre-refinement segment: its owning document and sentence
// range.
type rawSeg struct {
	doc    int
	lo, hi int
}

// segRef keys one non-noise segment for the sort-based refinement
// grouping: its intention cluster, owning document, and index into the
// flat segment list. Sorting refs by (cluster, doc, seg) makes every
// refined (doc, cluster) group a contiguous run, every cluster a
// contiguous run of groups in ascending-doc order (the unit-id order the
// previous document-walk produced), and the whole grouping
// allocation-lean: no per-segment map values growing through repeated
// term copies.
type segRef struct {
	cluster, doc, seg int
}

// NewMR builds the full offline pipeline of Sec 4 over prepared documents:
// segmentation → segment weight vectors → grouping → refinement →
// per-cluster indexing. Segmentation, vectorization, the clustering
// internals, and the per-cluster index construction all fan out over
// cfg.Workers goroutines; the output is identical for any worker count.
func NewMR(name string, docs []*segment.Doc, cfg MRConfig) *MR {
	cfg = cfg.withDefaults()
	mr := &MR{name: name, cfg: cfg}

	// Phase 1: segmentation (parallel; per-document work is independent).
	// Each phase is timed by its obs span; the span measurement is also
	// the BuildStats duration, so the two never disagree.
	phase := spanBuildSegment.StartAlways()
	segmentations := make([]segment.Segmentation, len(docs))
	par.Do(len(docs), cfg.Workers, func(i int) {
		segmentations[i] = cfg.Strategy.Segment(docs[i])
	})
	mr.stats.Segmentation = phase.Stop()

	// Phase 2: vectors + clustering + refinement.
	start := time.Now()
	var segs []rawSeg
	mr.before = make([]int, len(docs))
	for i, s := range segmentations {
		ranges := s.Segments()
		mr.before[i] = len(ranges)
		for _, r := range ranges {
			segs = append(segs, rawSeg{doc: i, lo: r[0], hi: r[1]})
		}
	}
	mr.stats.NumSegments = len(segs)

	phase = spanBuildVectorize.StartAlways()
	vectors := make([][]float64, len(segs))
	par.Do(len(segs), cfg.Workers, func(i int) {
		d := docs[segs[i].doc]
		switch {
		case cfg.ContentVectors:
			vectors[i] = hashedTermVector(d.Terms(segs[i].lo, segs[i].hi))
		case cfg.FullVectors:
			vectors[i] = cm.WeightVector(d.Range(segs[i].lo, segs[i].hi), d.Range(0, d.Len()))
		default:
			vectors[i] = cm.WithinSegmentWeights(d.Range(segs[i].lo, segs[i].hi))
		}
	})
	mr.stats.Vectorization = phase.Stop()

	phase = spanBuildCluster.StartAlways()
	var labels []int
	var k int
	switch {
	case cfg.ContentVectors:
		k = cfg.ContentK
		labels = cluster.KMeans(vectors, k, cfg.Seed, 0, cfg.Workers)
	case cfg.Grouper == GroupKMeans:
		k = cfg.KMeansK
		if k > len(vectors) && len(vectors) > 0 {
			k = len(vectors)
		}
		labels = cluster.KMeans(vectors, k, cfg.Seed, 0, cfg.Workers)
	default:
		eps := cfg.Eps
		if eps == 0 {
			eps = cluster.EstimateEpsSampled(vectors, cfg.MinPts-1, 500, cfg.Workers)
		}
		labels, k = cluster.Sampled(vectors, eps, cfg.MinPts, cfg.SampleSize, cfg.Workers)
		for _, l := range labels {
			if l == cluster.Noise {
				mr.stats.NoiseCount++
			}
		}
		if k == 0 {
			// Degenerate data: one catch-all intention cluster.
			k = 1
			for i := range labels {
				labels[i] = 0
			}
		} else if !cfg.KeepNoise {
			cents := cluster.Centroids(vectors, labels, k, cfg.Workers)
			mr.stats.NoiseReassigned = cluster.AssignNoise(vectors, labels, cents, cfg.Workers)
		}
	}
	mr.centroids = cluster.Centroids(vectors, labels, k, cfg.Workers)
	mr.stats.NumClusters = k
	mr.stats.Clustering = phase.Stop()

	// Refinement (Sec 6): at most one segment per document per cluster,
	// derived by sorting a flat slice instead of growing map values.
	phase = spanBuildRefine.StartAlways()
	refs := make([]segRef, 0, len(segs))
	for i, s := range segs {
		if labels[i] != cluster.Noise {
			refs = append(refs, segRef{cluster: labels[i], doc: s.doc, seg: i})
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		ra, rb := refs[a], refs[b]
		if ra.cluster != rb.cluster {
			return ra.cluster < rb.cluster
		}
		if ra.doc != rb.doc {
			return ra.doc < rb.doc
		}
		return ra.seg < rb.seg
	})
	// One group per refined (doc, cluster) pair: refs[lo:hi].
	type group struct{ cluster, doc, lo, hi int }
	var groups []group
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && refs[j].cluster == refs[i].cluster && refs[j].doc == refs[i].doc {
			j++
		}
		groups = append(groups, group{cluster: refs[i].cluster, doc: refs[i].doc, lo: i, hi: j})
		i = j
	}
	// Contiguous group range [lo, hi) of each cluster.
	clusterGroups := make([][2]int, k)
	for gi := 0; gi < len(groups); {
		gj := gi + 1
		for gj < len(groups) && groups[gj].cluster == groups[gi].cluster {
			gj++
		}
		clusterGroups[groups[gi].cluster] = [2]int{gi, gj}
		gi = gj
	}
	mr.stats.Refinement = phase.Stop()
	mr.stats.Grouping = time.Since(start)

	// Phase 3: per-cluster indexing. Index construction is independent
	// across clusters, so clusters fan out; within one cluster, groups run
	// in ascending-doc order, reproducing the unit ids the former serial
	// document walk assigned.
	phase = spanBuildIndex.StartAlways()
	mr.clusters = make([]*index.Index, k)
	mr.unitDoc = make([][]int, k)
	groupUnit := make([]int, len(groups))
	groupTerms := make([][]string, len(groups))
	par.Do(k, cfg.Workers, func(c int) {
		ix := index.New()
		lo, hi := clusterGroups[c][0], clusterGroups[c][1]
		owners := make([]int, 0, hi-lo)
		for gi := lo; gi < hi; gi++ {
			g := groups[gi]
			terms := mergedTerms(docs, segs, refs[g.lo:g.hi])
			groupTerms[gi] = terms
			groupUnit[gi] = ix.Add(terms)
			owners = append(owners, g.doc)
		}
		mr.clusters[c] = ix
		mr.unitDoc[c] = owners
	})
	mr.docSegs = make([][]docSeg, len(docs))
	mr.after = make([]int, len(docs))
	for gi, g := range groups { // cluster-major: per-doc segs stay cluster-ascending
		mr.docSegs[g.doc] = append(mr.docSegs[g.doc], docSeg{cluster: g.cluster, unit: groupUnit[gi], terms: groupTerms[gi]})
		mr.after[g.doc]++
	}
	mr.stats.Indexing = phase.Stop()
	return mr
}

// mergedTerms materializes the refined segment of one (doc, cluster)
// group — the concatenated terms of its member segments in segment order —
// in a single exact-capacity allocation.
func mergedTerms(docs []*segment.Doc, segs []rawSeg, group []segRef) []string {
	if len(group) == 1 {
		s := segs[group[0].seg]
		return docs[s.doc].Terms(s.lo, s.hi)
	}
	total := 0
	for _, r := range group {
		s := segs[r.seg]
		total += docs[s.doc].TermCount(s.lo, s.hi)
	}
	out := make([]string, 0, total)
	for _, r := range group {
		s := segs[r.seg]
		out = docs[s.doc].AppendTerms(out, s.lo, s.hi)
	}
	return out
}

// Name implements Matcher.
func (mr *MR) Name() string { return mr.name }

// Match implements Matcher: Algorithm 1 per intention cluster the reference
// document appears in (top-n with n = NFactor·k), then Algorithm 2's score
// summation and global top-k. The per-intention-cluster queries run in
// parallel over a Workers-bounded pool; the read lock held for Match's
// full duration keeps the unit → document ownership tables consistent
// with the cluster indices while a concurrent Add waits.
func (mr *MR) Match(docID, k int) []Result {
	return mr.MatchTraced(docID, k, nil)
}

// MatchTraced is Match with request-scoped tracing: a non-nil tr
// records the per-stage progression of this one query — one
// "match.list" event per intention-cluster list (cluster id, list
// width, plus the "index.query" event the index itself records with
// candidate width and pool-hit detail), then the Algorithm 2 merge
// width and the final result count. A nil tr is the steady-state path
// and costs a pointer check per hook (the Fig 11c benchmarks gate it
// at 0 extra allocations).
func (mr *MR) MatchTraced(docID, k int, tr *obs.Trace) []Result {
	out, _ := mr.match(docID, k, tr, false)
	return out
}

// match is the one query path behind MatchTraced and MatchExplained:
// Algorithm 1's lists, the trim, Algorithm 2's sums, the top-k — and,
// when explain is set, the decomposition of every result over the very
// lists the scores were summed from. The read lock is held across both
// halves, so an explanation reconciles bit-for-bit with its scores even
// with concurrent Adds in flight. The trimmed lists and divisors are
// retained only for explain, which keeps the plain path at its
// benchmark-gated allocation count.
func (mr *MR) match(docID, k int, tr *obs.Trace, explain bool) ([]Result, []Explanation) {
	if k <= 0 {
		return nil, nil
	}
	tm := spanQuery.Start()
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	if docID < 0 || docID >= len(mr.docSegs) {
		return nil, nil
	}
	segs, lists, _ := mr.queryListsLocked(docID, k, tr)
	var norms []float64
	if explain {
		norms = make([]float64, len(segs))
	}
	// Algorithm 2: sum the per-intention list scores per owning document.
	scores := make(map[int]float64)
	for i, seg := range segs {
		res, norm := mr.trimList(lists[i])
		if explain {
			lists[i], norms[i] = res, norm
		}
		owners := mr.unitDoc[seg.cluster]
		for _, r := range res {
			scores[owners[r.Unit]] += r.Score / norm
		}
	}
	histQueryLists.Observe(int64(len(segs)))
	histQueryCandidates.Observe(int64(len(scores)))
	// Guarded rather than relying on the nil-receiver no-op: the variadic
	// attr slice would otherwise be built (and heap-allocated) on the
	// untraced path too.
	if tr != nil {
		tr.Event("match.merge", obs.N("lists", int64(len(segs))), obs.N("candidates", int64(len(scores))))
	}
	out := topK(scores, k, docID)
	if tr != nil {
		tr.Event("match.topk", obs.N("results", int64(len(out))))
	}
	tm.Stop()
	if !explain {
		return out, nil
	}
	return out, mr.explainLocked(out, segs, lists, norms)
}

// queryListsLocked runs Algorithm 1: one top-n index query per
// intention cluster the reference document appears in, fanned out over
// the worker pool. Callers must hold at least the read lock. The
// returned lists are untrimmed (trimList applies the threshold cut and
// normalization); n is the per-list depth used.
// The results are deliberately unnamed: the par.Do closure reads segs,
// lists, and n, and named results (assigned at every return) would be
// captured by reference, costing one heap cell each per query on the
// benchmark-gated hot path. Plain locals are captured by value.
func (mr *MR) queryListsLocked(docID, k int, tr *obs.Trace) ([]docSeg, [][]index.Result, int) {
	n := mr.cfg.ListDepth(k)
	segs := mr.docSegs[docID]
	// Algorithm 1: each intention list is an independent index query, so
	// they fan out. Each list lands in its own slot and the merge walks
	// them in segment order — float summation is not associative, so
	// merge order must not depend on goroutine scheduling.
	lists := make([][]index.Result, len(segs))
	if mr.prunableLocked() {
		// Pruned collections: resolve the frozen probes up front, estimate
		// each list's score upper bound (Σ_t f_q·bound·pIDF), and start the
		// highest-bound probes first. Cross-list thresholds cannot be shared
		// (Algorithm 2 sums *across* lists, so a low-bound list's entries
		// still matter), so the ordering is pure longest-work-first
		// scheduling: the expensive, high-impact scans are in flight before
		// the cheap ones, shrinking the parallel makespan. Slots are fixed
		// by segment position, so results are identical for any order.
		probes := mr.probesLocked(segs)
		type ordered struct {
			pos int
			ub  float64
		}
		order := make([]ordered, len(segs))
		for i, q := range probes {
			order[i] = ordered{pos: i, ub: mr.clusters[q.Cluster].UpperBoundSum(q.Terms, q.QF, q.IDF, q.AvgUnique)}
		}
		sort.Slice(order, func(a, b int) bool {
			if order[a].ub != order[b].ub {
				return order[a].ub > order[b].ub
			}
			return order[a].pos < order[b].pos
		})
		par.Do(len(segs), mr.cfg.Workers, func(j int) {
			i := order[j].pos
			seg := segs[i]
			q := probes[i]
			own := seg.unit
			lists[i] = mr.clusters[seg.cluster].QueryFrozen(
				q.Terms, q.QF, q.IDF, q.AvgUnique, n, 0, func(u int) bool { return u == own }, tr)
			if tr != nil {
				tr.Event("match.list",
					obs.N("cluster", int64(seg.cluster)),
					obs.N("width", int64(len(lists[i]))))
			}
		})
		return segs, lists, n
	}
	par.Do(len(segs), mr.cfg.Workers, func(i int) {
		seg := segs[i]
		own := seg.unit
		lists[i] = mr.clusters[seg.cluster].QueryTraced(
			index.TermFrequencies(seg.terms), n, func(u int) bool { return u == own }, tr)
		if tr != nil {
			tr.Event("match.list",
				obs.N("cluster", int64(seg.cluster)),
				obs.N("width", int64(len(lists[i]))))
		}
	})
	return segs, lists, n
}

// prunableLocked reports whether any intention cluster is large enough
// for the index layer's max-score gate to engage — the signal that the
// frozen, bound-ordered probe path is worth its probe-resolution
// overhead. Callers must hold at least the read lock.
func (mr *MR) prunableLocked() bool {
	for _, ix := range mr.clusters {
		if ix.NumUnits() >= index.PruneMinUnits {
			return true
		}
	}
	return false
}

// trimList applies the Algorithm 2 list post-processing Match and
// MatchExplained must agree on: the optional threshold cut (keep
// results within ScoreThreshold of the list's best) and the optional
// per-list normalization divisor.
func (mr *MR) trimList(res []index.Result) ([]index.Result, float64) {
	if len(res) == 0 {
		return res, 1
	}
	cut, norm := mr.cfg.TrimParams(res[0].Score)
	if !math.IsInf(cut, -1) {
		keep := res[:0]
		for _, r := range res {
			if r.Score >= cut {
				keep = append(keep, r)
			}
		}
		res = keep
	}
	return res, norm
}

// Config returns the matcher's effective configuration (defaults
// applied) — what the sharding layer copies so every shard queries,
// trims, and ingests exactly as the source matcher does.
func (mr *MR) Config() MRConfig { return mr.cfg }

// Stats returns the build-phase timing and size statistics.
func (mr *MR) Stats() BuildStats {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	return mr.stats
}

// NumClusters returns the number of intention clusters formed.
func (mr *MR) NumClusters() int { return len(mr.clusters) }

// ShardDocs returns nil: a single matcher is one unpartitioned
// collection. The method gives the unsharded matcher and shard.Group
// one surface for core.Pipeline to hold.
func (mr *MR) ShardDocs() []int { return nil }

// Centroids returns the cluster centroids in the segment vector space —
// the columns of Fig 3. The centroids are frozen at build time (Add
// assigns new segments to them but never moves them), so the returned
// slices are safe to read concurrently.
func (mr *MR) Centroids() [][]float64 { return mr.centroids }

// SegmentCounts returns each document's segment count before grouping and
// after the refinement step (the two halves of Table 3). The returned
// slices are fresh copies taken under the read lock: documents added
// after the call do not appear in them, callers may retain or mutate
// them freely, and a concurrent Add can never write into their backing
// arrays (the live mr.before/mr.after grow in place under the write
// lock, so handing those out would alias writer-owned memory).
func (mr *MR) SegmentCounts() (before, after []int) {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	before = append([]int(nil), mr.before...)
	after = append([]int(nil), mr.after...)
	return before, after
}

// ClusterSizes returns the number of (refined) segments per cluster.
func (mr *MR) ClusterSizes() []int {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	out := make([]int, len(mr.clusters))
	for c, ix := range mr.clusters {
		out[c] = ix.NumUnits()
	}
	return out
}

// hashedTermVectorDim is the dimensionality of the feature-hashed TF
// vectors Content-MR clusters (k-means needs dense fixed-width points; 64
// dimensions keep collisions rare at forum-segment vocabulary sizes).
const hashedTermVectorDim = 64

// hashedTermVector folds a segment's terms into a dense L2-normalized TF
// vector by feature hashing.
func hashedTermVector(terms []string) []float64 {
	v := make([]float64, hashedTermVectorDim)
	for _, t := range terms {
		h := fnv.New32a()
		h.Write([]byte(t))
		v[h.Sum32()%hashedTermVectorDim]++
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
	}
	return v
}
