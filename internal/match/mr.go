package match

import (
	"encoding/binary"
	"runtime"
	"slices"
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
// names in Table 4). Its zero value is the paper's method,
// IntentIntent-MR: Greedy borders with CM voting (Sec 5.3), Eq 5 segment
// vectors, and k-means at k = 6 for the intention grouping (Sec 6;
// DESIGN.md, Substitutions, says why k-means and not DBSCAN). The three
// stages are what the comparison methods of Sec 9.2 and the ablations
// replace; internal/baseline and internal/experiments set them, from
// internal/variant where the stage is not the paper's:
//
//	SentIntent-MR: Strategy = variant.Sentences{}
//	Content-MR:    Strategy = variant.TextTiling{}, Vectorize = hashed TF vectors, Group = GroupKMeans(8)
//
// A matcher built with any stage set cannot be written (WriteTo), so a
// snapshot always loads as the paper's method and adds posts as it does.
// Algorithm 2 has one shape: per-intention top-n lists with n = 2k (Sec
// 7), their raw scores summed per document.
type MRConfig struct {
	// Strategy selects segment borders. segment.Greedy{} when nil.
	Strategy segment.Strategy
	// Vectorize maps a segment to the vector it is grouped by, and by
	// which Add assigns a new post's segments to their nearest centroid.
	// Eq 5's within-segment CM weights when nil.
	Vectorize Vectorizer
	// Group labels the segment vectors with intention clusters.
	// GroupKMeans(6) when nil.
	Group Grouper
	// Seed drives the grouping's random choices (k-means initialization).
	Seed int64
	// Workers bounds build parallelism. NumCPU when 0.
	Workers int
}

// Vectorizer maps the segment of sentence units [lo, hi) of d to a
// dense vector; every vector it returns has one length.
type Vectorizer func(d *segment.Doc, lo, hi int) []float64

// Grouper labels every vector with a cluster in [0, k) and returns the
// labels and k. The output must be the same for any worker count.
type Grouper func(vectors [][]float64, seed int64, workers int) (labels []int, k int)

// GroupKMeans returns the Grouper that clusters with k-means at k
// clusters, k clamped to the point count.
func GroupKMeans(k int) Grouper {
	return func(vectors [][]float64, seed int64, workers int) ([]int, int) {
		k := k
		if k > len(vectors) && len(vectors) > 0 {
			k = len(vectors)
		}
		return cluster.KMeans(vectors, k, seed, 0, workers), k
	}
}

// The paper's stages, run wherever an MRConfig leaves one nil.
var (
	eq5Vectors = func(d *segment.Doc, lo, hi int) []float64 { return cm.WithinSegmentWeights(d.Range(lo, hi)) }
	kmeans6    = GroupKMeans(6)
)

// ListDepth returns Algorithm 1's per-intention list length for a top-k
// request: n = 2k, the paper's choice. It is exported so the sharding
// layer probes every shard at exactly the depth the unsharded query
// path uses — the global top-n of each intention list is then a subset
// of the union of the per-shard top-n lists, which is what makes the
// scatter-gather merge ranking-equivalent.
func (MRConfig) ListDepth(k int) int { return 2 * k }

func (c MRConfig) withDefaults() MRConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// stages returns the configuration's three stages, the paper's in place
// of any left nil.
func (c MRConfig) stages() (segment.Strategy, Vectorizer, Grouper) {
	st, vec, grp := c.Strategy, c.Vectorize, c.Group
	if st == nil {
		st = segment.Greedy{}
	}
	if vec == nil {
		vec = eq5Vectors
	}
	if grp == nil {
		grp = kmeans6
	}
	return st, vec, grp
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
	Clustering    time.Duration // the Group stage + centroids
	Refinement    time.Duration // sort-based (doc, cluster) grouping
	Grouping      time.Duration // vectorization + clustering + refinement — Fig 11(b)
	Indexing      time.Duration // per-cluster index construction
	NumSegments   int           // before refinement
	NumClusters   int
}

// segTable holds every document's refined segments in one byte stream,
// the snapshot's "dseg" rows without their unit ids: document d is
// data[docEnd[d-1]:docEnd[d]], a uvarint row count and then, per row
// and ascending in cluster, a uvarint cluster, a uvarint token count
// and the tokens — dictionary ids in token order, for query-time TF and
// a byte-for-byte re-encoding — as uvarints. Clusters, counts and most
// ids fit in one or two bytes. A row's unit in its cluster's index is
// not kept: units are assigned in document order, so it is the
// document's position in unitDoc[cluster] (unitOf). Readers walk a
// document's rows with segRows.
type segTable struct {
	docEnd []int32 // per document: the byte offset in data where it ends
	data   []byte
}

func (st *segTable) numDocs() int { return len(st.docEnd) }

// docBytes returns document d's bytes: its row count, then its rows.
func (st *segTable) docBytes(d int) []byte {
	lo := int32(0)
	if d > 0 {
		lo = st.docEnd[d-1]
	}
	return st.data[lo:st.docEnd[d]]
}

// rows returns a cursor over document d's rows.
func (st *segTable) rows(d int) segRows {
	b := st.docBytes(d)
	n, k := binary.Uvarint(b)
	return segRows{b: b[k:], n: int(n)}
}

// numTokens counts document d's tokens: each uvarint has exactly one
// byte below 0x80, its last, and besides the tokens the document holds
// its row count and two uvarints a row.
func (st *segTable) numTokens(d int) int {
	b := st.docBytes(d)
	n, _ := binary.Uvarint(b)
	ends := 0
	for _, c := range b {
		if c < 0x80 {
			ends++
		}
	}
	return ends - 1 - 2*int(n)
}

// segRows walks the rows of one document; n is the number left.
type segRows struct {
	b []byte
	n int
}

// next decodes the next row: it returns the row's cluster and dst with
// the row's tokens appended. appendSeg wrote the bytes, so every uvarint
// in them is whole.
func (it *segRows) next(dst []int32) (cluster int, tokens []int32) {
	c, k := binary.Uvarint(it.b)
	nt, k2 := binary.Uvarint(it.b[k:])
	b := it.b[k+k2:]
	for range nt {
		v, n := binary.Uvarint(b)
		dst = append(dst, int32(v))
		b = b[n:]
	}
	it.b, it.n = b, it.n-1
	return int(c), dst
}

// startDoc opens the next document with its row count; appendSeg then
// adds its rows, ascending in cluster.
func (st *segTable) startDoc(rows int) {
	st.data = binary.AppendUvarint(st.data, uint64(rows))
	st.docEnd = append(st.docEnd, int32(len(st.data)))
}

// appendSeg adds a row to the document startDoc opened last.
func (st *segTable) appendSeg(cluster int, tokens []int32) {
	st.data = binary.AppendUvarint(st.data, uint64(cluster))
	st.data = binary.AppendUvarint(st.data, uint64(len(tokens)))
	for _, t := range tokens {
		st.data = binary.AppendUvarint(st.data, uint64(t))
	}
	st.docEnd[len(st.docEnd)-1] = int32(len(st.data))
}

// MR is a built multi-ranking matcher.
//
// Locking model: mu guards the mutable serving state — segs, unitDoc,
// before, and stats, which incremental Add appends to. Match,
// WriteTo, and every accessor hold the read lock for their full duration;
// Add commits its mutations under the write lock (the expensive
// segmentation and vectorization happen before the lock is taken, see
// PrepareAdd). The per-cluster indices carry their own RWMutex; the lock
// order is always MR.mu before Index.mu, never the reverse. name, cfg,
// dict (the pointer: the dictionary, shared by every cluster index and
// every shard of a group, locks itself), clusters (the slice itself),
// and centroids are immutable once the matcher is built or loaded.
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
	dict      *index.Dict
	clusters  []*index.Index
	unitDoc   [][]int32 // unitDoc[c][u] = document owning unit u of cluster c
	segs      segTable  // its rows per document are Table 3's count after refinement
	before    []int32   // per-doc segment count before grouping (Table 3)
	centroids [][]float64
	stats     BuildStats
}

// rawSeg is one pre-refinement segment: its owning document and sentence
// range.
type rawSeg struct {
	doc    int
	lo, hi int
}

// segRef keys one segment for the sort-based refinement
// grouping: its intention cluster, owning document, and index into the
// flat segment list. Sorting refs by (doc, cluster, seg) makes every
// refined (doc, cluster) group a contiguous run, in the segment table's
// row order — which visits each cluster's groups in ascending-doc
// order, the order of its unit ids — and the whole grouping
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
	strategy, vectorize, grouper := cfg.stages()

	// Phase 1: segmentation (parallel; per-document work is independent).
	// Each phase is timed by its obs span; the span measurement is also
	// the BuildStats duration, so the two never disagree.
	phase := spanBuildSegment.StartAlways()
	segmentations := make([]segment.Segmentation, len(docs))
	par.Do(len(docs), cfg.Workers, func(i int) {
		segmentations[i] = strategy.Segment(docs[i])
	})
	mr.stats.Segmentation = phase.Stop()

	// Phase 2: vectors + clustering + refinement.
	start := time.Now()
	var segs []rawSeg
	mr.before = make([]int32, len(docs))
	for i, s := range segmentations {
		ranges := s.Segments()
		mr.before[i] = int32(len(ranges))
		for _, r := range ranges {
			segs = append(segs, rawSeg{doc: i, lo: r[0], hi: r[1]})
		}
	}
	mr.stats.NumSegments = len(segs)

	phase = spanBuildVectorize.StartAlways()
	vectors := make([][]float64, len(segs))
	par.Do(len(segs), cfg.Workers, func(i int) {
		vectors[i] = vectorize(docs[segs[i].doc], segs[i].lo, segs[i].hi)
	})
	mr.stats.Vectorization = phase.Stop()

	phase = spanBuildCluster.StartAlways()
	labels, k := grouper(vectors, cfg.Seed, cfg.Workers)
	mr.centroids = cluster.Centroids(vectors, labels, k, cfg.Workers)
	mr.stats.NumClusters = k
	mr.stats.Clustering = phase.Stop()

	// Refinement (Sec 6): at most one segment per document per cluster,
	// derived by sorting a flat slice instead of growing map values.
	phase = spanBuildRefine.StartAlways()
	refs := make([]segRef, len(segs))
	for i, s := range segs {
		refs[i] = segRef{cluster: labels[i], doc: s.doc, seg: i}
	}
	sort.Slice(refs, func(a, b int) bool {
		ra, rb := refs[a], refs[b]
		if ra.doc != rb.doc {
			return ra.doc < rb.doc
		}
		if ra.cluster != rb.cluster {
			return ra.cluster < rb.cluster
		}
		return ra.seg < rb.seg
	})
	// One group per refined (doc, cluster) pair: refs[lo:hi].
	type group struct{ cluster, doc, lo, hi int }
	var groups []group
	tokens := 0
	for i := 0; i < len(refs); {
		j := i
		for ; j < len(refs) && refs[j].cluster == refs[i].cluster && refs[j].doc == refs[i].doc; j++ {
			tokens += docs[refs[j].doc].TermCount(segs[refs[j].seg].lo, segs[refs[j].seg].hi)
		}
		groups = append(groups, group{cluster: refs[i].cluster, doc: refs[i].doc, lo: i, hi: j})
		i = j
	}
	mr.stats.Refinement = phase.Stop()
	mr.stats.Grouping = time.Since(start)

	// Phase 3: the segment table — one row per group, in group order,
	// interned as it goes, so dictionary ids do not depend on scheduling —
	// then per-cluster indexing, which fans out over clusters.
	phase = spanBuildIndex.StartAlways()
	mr.dict = index.NewDict()
	mr.unitDoc = make([][]int32, k)
	st := &mr.segs
	st.docEnd = make([]int32, 0, len(docs))
	st.data = make([]byte, 0, len(docs)+2*len(groups)+tokens) // ≥ 1 byte a uvarint
	var row []int32
	for d, doc := range docs {
		n := 0
		for n < len(groups) && groups[n].doc == d {
			n++
		}
		st.startDoc(n)
		for _, gr := range groups[:n] {
			row = row[:0]
			for _, r := range refs[gr.lo:gr.hi] { // the refined segment: its members' terms in segment order
				row = mr.dict.AppendIDs(row, doc.Terms(segs[r.seg].lo, segs[r.seg].hi))
			}
			st.appendSeg(gr.cluster, row)
			mr.unitDoc[gr.cluster] = append(mr.unitDoc[gr.cluster], int32(d))
		}
		groups = groups[n:]
	}
	mr.indexSegs(k)
	mr.stats.Indexing = phase.Stop()
	return mr
}

// indexSegs builds the k cluster indices from the segment table: a
// cluster's units are its rows, in document order, decoded into one
// buffer that the indices do not keep.
func (mr *MR) indexSegs(k int) {
	units := make([][][]int32, k)
	n := 0
	for d := range mr.segs.numDocs() {
		n += mr.segs.numTokens(d)
	}
	buf := make([]int32, 0, n)
	for d := range mr.segs.numDocs() {
		for rows := mr.segs.rows(d); rows.n > 0; {
			lo := len(buf)
			var c int
			c, buf = rows.next(buf)
			units[c] = append(units[c], buf[lo:])
		}
	}
	mr.clusters = make([]*index.Index, k)
	par.Do(k, mr.cfg.Workers, func(c int) { mr.clusters[c] = index.Build(mr.dict, units[c]) })
}

// unitOf returns document d's unit in cluster c, and whether it has
// one: units are assigned in document order, so unitDoc[c] ascends.
func (mr *MR) unitOf(c, d int) (int, bool) {
	return slices.BinarySearch(mr.unitDoc[c], int32(d))
}

// Name implements Matcher.
func (mr *MR) Name() string { return mr.name }

// Match implements Matcher: Algorithm 1 per intention cluster the reference
// document appears in (top-n with n = 2k), then Algorithm 2's score
// summation and global top-k. The per-cluster queries run in parallel over
// a Workers-bounded pool; the read lock held throughout keeps the unit →
// document tables consistent with the indices while a concurrent Add waits.
func (mr *MR) Match(docID, k int) []Result {
	return mr.MatchTraced(docID, k, nil)
}

// MatchTraced is Match with request-scoped tracing: a non-nil tr
// records one "match.list" event per intention-cluster list (beside
// the "index.query" event the index itself records), then the
// Algorithm 2 merge width and the final result count. A nil tr is the
// steady-state path and costs a pointer check per hook.
func (mr *MR) MatchTraced(docID, k int, tr *obs.Trace) []Result {
	out, _ := mr.match(docID, k, tr, false)
	return out
}

// match is the one query path behind MatchTraced and MatchExplained:
// Algorithm 1's lists, Algorithm 2's sums, the top-k — and, when explain
// is set, the decomposition of every result over the very lists the
// scores were summed from. The read lock is held across both halves, so
// an explanation reconciles bit-for-bit with its scores even with
// concurrent Adds in flight.
func (mr *MR) match(docID, k int, tr *obs.Trace, explain bool) ([]Result, []Explanation) {
	if k <= 0 {
		return nil, nil
	}
	tm := spanQuery.Start()
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	if docID < 0 || docID >= mr.segs.numDocs() {
		return nil, nil
	}
	probes, lists, n := mr.queryListsLocked(docID, k, tr)
	// Algorithm 2: sum the per-intention list scores per owning document.
	scores := make(map[int]float64, n*len(probes))
	for i, q := range probes {
		owners := mr.unitDoc[q.Cluster]
		for _, r := range lists[i] {
			scores[int(owners[r.Unit])] += r.Score
		}
	}
	histQueryLists.Observe(int64(len(probes)))
	histQueryCandidates.Observe(int64(len(scores)))
	// Guarded rather than relying on the nil-receiver no-op: the variadic
	// attr slice would otherwise be built (and heap-allocated) on the
	// untraced path too.
	if tr != nil {
		tr.Event("match.merge", obs.N("lists", int64(len(probes))), obs.N("candidates", int64(len(scores))))
	}
	out := TopKScores(scores, k, docID)
	if tr != nil {
		tr.Event("match.topk", obs.N("results", int64(len(out))))
	}
	tm.Stop()
	if !explain {
		return out, nil
	}
	return out, mr.explainLocked(out, probes, lists)
}

// queryListsLocked runs Algorithm 1: one top-n index query per
// intention cluster the reference document appears in — its frozen
// probes (probesLocked) — fanned out over the worker pool. Callers must
// hold at least the read lock; n is the per-list depth used. The
// results are deliberately unnamed, and every
// local the par.Do closure reads is assigned once: anything else is
// captured by reference, a heap cell each on the allocation-gated path.
func (mr *MR) queryListsLocked(docID, k int, tr *obs.Trace) ([]ClusterQuery, [][]index.Result, int) {
	n := mr.cfg.ListDepth(k)
	probes := mr.probesLocked(docID)
	// Each intention list is an independent index query, so they fan
	// out. Each lands in its own slot and the merge walks them in segment
	// order — float summation is not associative, so merge order must not
	// depend on goroutine scheduling.
	lists := make([][]index.Result, len(probes))
	par.Do(len(probes), mr.cfg.Workers, func(i int) {
		q := probes[i]
		own, _ := mr.unitOf(q.Cluster, docID)
		lists[i] = mr.clusters[q.Cluster].QueryFrozen(nil,
			q.Terms, q.QF, q.IDF, q.AvgUnique, n, nil, func(u int) bool { return u == own }, tr)
		if tr != nil {
			tr.Event("match.list",
				obs.N("cluster", int64(q.Cluster)),
				obs.N("width", int64(len(lists[i]))))
		}
	})
	return probes, lists, n
}

// Config returns the matcher's configuration, its worker count resolved:
// what the sharding layer copies so every shard queries and ingests
// exactly as the source matcher does. Stages left nil are the paper's.
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
// slices are fresh, taken under the read lock: documents added after
// the call do not appear in them and callers may retain or mutate them
// freely.
func (mr *MR) SegmentCounts() (before, after []int) {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	before, after = make([]int, len(mr.before)), make([]int, len(mr.before))
	for d := range before {
		before[d], after[d] = int(mr.before[d]), mr.segs.rows(d).n
	}
	return before, after
}
