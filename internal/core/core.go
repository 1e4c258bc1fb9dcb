// Package core is the public face of the reproduction: an end-to-end
// pipeline that ingests raw forum posts, runs the paper's offline phases
// (intention-based segmentation, segment grouping, refinement, per-cluster
// indexing — Sec 4), and serves online top-k related-post queries
// (Sec 7). It builds the paper's method, IntentIntent-MR, only; the
// comparison methods of Sec 9.2 are built in internal/baseline.
//
// Typical use:
//
//	p, err := core.Build(posts, core.Config{})
//	related := p.Related(postID, 5)
//
// Build is the offline phase (the paper runs it as pre-processing);
// Related is the online phase (sub-millisecond per query at 100k posts).
//
// A built Pipeline is safe for concurrent use: any number of goroutines
// may interleave Related, Add, Stats, and HasDoc. Related never blocks on
// the pipeline's own state; Add prepares the new document lock-free and
// holds the write lock only for the final bookkeeping.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/shard"
)

// Observability instruments for the pipeline's outer surface.
// build.preprocess covers HTML cleaning + sentence split + CM
// annotation (the part of the offline phase that runs before
// match.NewMR's build.* spans); core.related and core.add time the two
// public online operations end to end, and core.docs tracks the
// current collection size. Recording costs nothing while obs is
// disabled.
var (
	spanBuildPreprocess = obs.NewSpan("build.preprocess")
	spanRelated         = obs.NewSpan("core.related")
	spanAdd             = obs.NewSpan("core.add")
	gaugeDocs           = obs.NewGauge("core.docs")
)

// Method names a matching method by its Table 4 row label.
type Method string

// IntentIntentMR is the paper's complete method, and the one method core
// builds: intention-based segmentation (Greedy border selection),
// CM-vector clustering, and multi-ranking matching (Algorithms 1 and 2).
const IntentIntentMR Method = "IntentIntent-MR"

// String returns the method's Table 4 row label.
func (m Method) String() string { return string(m) }

// Config controls pipeline construction. Every configuration builds the
// method match.MRConfig's zero value describes: Greedy border selection,
// k-means grouping (k = 6) of the Eq 5 CM vectors — DESIGN.md's stated
// substitution for the paper's DBSCAN — and Algorithm 2 over n = 2k lists.
type Config struct {
	// Seed drives every randomized component.
	Seed int64
	// Shards partitions the built collection across this many independent
	// shard matchers served by scatter-gather (see internal/shard): Add
	// routes to one shard, Related fans out to all and merges. Rankings
	// and scores are identical to the unsharded pipeline — sharding is a
	// serving topology, not an approximation. 0 or 1 serves unsharded.
	// The routing seed is Seed.
	Shards int
	// Workers bounds offline build parallelism — document preprocessing,
	// segmentation, vectorization, the clustering internals, and
	// per-cluster index construction all fan out over this many
	// goroutines. 0 sizes the pool from the machine (GOMAXPROCS); results
	// are identical for any worker count. The online per-query fan-out
	// follows the same knob.
	Workers int
}

// Stats describes where offline build time went (Fig 11 and Table 6).
// Grouping is the Fig 11(b) total; Vectorization, Clustering, and
// Refinement break it down into its sub-phases.
type Stats struct {
	Preprocess    time.Duration // HTML cleaning, sentence split, CM annotation
	Segmentation  time.Duration
	Vectorization time.Duration // segment weight vectors (Eq 5/6)
	Clustering    time.Duration // eps estimation + DBSCAN/k-means + centroids
	Refinement    time.Duration // (doc, cluster) grouping
	Grouping      time.Duration // vectorization + clustering + refinement
	Indexing      time.Duration
	NumDocs       int
	NumSegments   int // before refinement, added posts included
	NumClusters   int
}

// segMatcher is the surface the matcher serves the pipeline through.
// *match.MR (one index) and *shard.Group (the same collection
// partitioned) both satisfy it, so sharding is a choice Build makes
// once, not a branch in every method.
type segMatcher interface {
	match.Explainer
	MatchTraced(docID, k int, tr *obs.Trace) []match.Result
	PrepareAdd(d *segment.Doc) *match.PendingAdd
	Generation() uint64
	NumClusters() int
	Centroids() [][]float64
	SegmentCounts() (before, after []int)
	ShardDocs() []int
}

// Pipeline is a built related-post retrieval system over one collection.
//
// mu guards stats, the pipeline's only mutable state; matcher is frozen
// at Build time. Holding mu across the matcher commit in Add keeps the
// document count aligned with the matcher's ids, so HasDoc and Related
// agree on ids at all times. The prepared posts are not kept: the
// matcher holds what serving reads of them.
type Pipeline struct {
	matcher segMatcher

	// epochBase offsets Epoch: 0 for a fresh Build, 1 for a pipeline
	// restored from a snapshot, so loading a snapshot is itself an epoch
	// advance and no cached result computed against a pre-load pipeline
	// can survive the load. Immutable after construction.
	epochBase uint64

	mu    sync.RWMutex
	stats Stats
}

// Result is one related post.
type Result = match.Result

// Build runs the offline phases over raw post texts. Posts may contain
// HTML. The index positions of texts become the document ids used by
// Related.
func Build(texts []string, cfg Config) (*Pipeline, error) {
	p := &Pipeline{}
	tm := spanBuildPreprocess.StartAlways()
	docs := make([]*segment.Doc, len(texts))
	par.Do(len(texts), cfg.Workers, func(i int) { docs[i] = segment.NewDoc(texts[i]) })
	p.stats.Preprocess = tm.Stop()
	p.stats.NumDocs = len(texts)
	gaugeDocs.Set(int64(len(texts)))

	mr := match.NewMR(IntentIntentMR.String(), docs, match.MRConfig{Seed: cfg.Seed, Workers: cfg.Workers})
	bs := mr.Stats()
	p.stats.Segmentation = bs.Segmentation
	p.stats.Vectorization = bs.Vectorization
	p.stats.Clustering = bs.Clustering
	p.stats.Refinement = bs.Refinement
	p.stats.Grouping = bs.Grouping
	p.stats.Indexing = bs.Indexing
	p.stats.NumSegments = bs.NumSegments
	p.stats.NumClusters = bs.NumClusters
	p.matcher = mr
	if cfg.Shards > 1 {
		g, err := shard.NewGroup(mr, cfg.Shards, uint64(cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		// The group re-indexed everything; drop the unsharded matcher
		// rather than hold two copies of the postings.
		p.matcher = g
	}
	return p, nil
}

// ErrUnknownDoc reports a query for a document id outside the
// collection. The serving layer maps it to 404.
var ErrUnknownDoc = errors.New("core: unknown doc_id")

// Related returns the top-k posts related to document docID (Sec 7's
// online matching). Results never include docID and arrive best first.
func (p *Pipeline) Related(docID, k int) []Result {
	return p.RelatedContext(context.Background(), docID, k)
}

// RelatedContext is Related with request-scoped tracing: when the
// context carries an obs.Trace (see obs.WithTrace — the serve layer
// attaches one per sampled or slow-captured request), the query records
// its per-stage events into it. The trace is extracted once here and
// passed down as a pointer; an untraced context adds only a context
// lookup and nil checks to the hot path (benchmark-gated at 0 extra
// allocations).
func (p *Pipeline) RelatedContext(ctx context.Context, docID, k int) []Result {
	tm := spanRelated.Start()
	out := p.matcher.MatchTraced(docID, k, obs.TraceFrom(ctx))
	tm.Stop()
	return out
}

// Query is the engine form of RelatedContext, the one internal/serve
// drives (the fleet coordinator implements the same method). It
// validates the id — ErrUnknownDoc distinguishes a bad id from an empty
// but valid result list — and, when explain is set, adds the Eq 7–9
// score decomposition: each result arrives with its per-intention-
// cluster contributions and the term-level products behind them (see
// match.Explanation), under the same trace events as the plain query.
func (p *Pipeline) Query(ctx context.Context, docID, k int, explain bool) (match.Answer, error) {
	if !p.HasDoc(docID) {
		return match.Answer{}, ErrUnknownDoc
	}
	if !explain {
		return match.Answer{Results: p.RelatedContext(ctx, docID, k)}, nil
	}
	tm := spanRelated.Start()
	out, exps := p.matcher.MatchExplained(docID, k, obs.TraceFrom(ctx))
	tm.Stop()
	return match.Answer{Results: out, Explanations: exps}, nil
}

// Method returns the matcher's name.
func (p *Pipeline) Method() string { return p.matcher.Name() }

// Stats returns offline build statistics (plus the running document
// count, which Add maintains). The returned copy is internally
// consistent even while adds are in flight.
func (p *Pipeline) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.stats
}

// NumClusters returns the intention-cluster count.
func (p *Pipeline) NumClusters() int { return p.matcher.NumClusters() }

// Shards returns the serving shard count: 0 for an unsharded pipeline,
// Config.Shards otherwise.
func (p *Pipeline) Shards() int { return len(p.ShardDocs()) }

// ShardDocs returns the per-shard document counts, or nil for an
// unsharded pipeline.
func (p *Pipeline) ShardDocs() []int { return p.matcher.ShardDocs() }

// Centroids returns the intention-cluster centroids (Fig 3).
func (p *Pipeline) Centroids() [][]float64 { return p.matcher.Centroids() }

// SegmentCounts returns each document's segment count before grouping and
// after refinement (Table 3). The returned slices are snapshots copied under the matcher's read lock
// (see match.MR.SegmentCounts): safe to retain and mutate while
// concurrent Adds grow the live counts.
func (p *Pipeline) SegmentCounts() (before, after []int) { return p.matcher.SegmentCounts() }

// Add ingests one new post into an already-built pipeline without re-clustering: the post is segmented, its segments join the
// nearest existing intention clusters, and the per-cluster indices are
// updated (Sec 9.2: intentions drift slowly, so nearest-centroid
// assignment suffices between periodic rebuilds). It returns the new
// post's document id.
//
// Add is safe to call concurrently with itself and with Related: the
// expensive preparation (HTML cleaning, CM annotation, segmentation,
// vectorization) runs outside every lock, and only the commit — a few
// slice appends — serializes.
func (p *Pipeline) Add(text string) (int, error) {
	return p.AddContext(context.Background(), text)
}

// AddContext is Add with request-scoped tracing: a context-carried
// obs.Trace records the prepare/commit split of this one ingestion
// (segment count after preparation, assigned id after commit), the
// per-request view of the match.add.prepare/match.add.commit spans.
func (p *Pipeline) AddContext(ctx context.Context, text string) (int, error) {
	tr := obs.TraceFrom(ctx)
	tm := spanAdd.Start()
	pending := p.matcher.PrepareAdd(segment.NewDoc(text))
	if tr != nil {
		tr.Event("add.prepared", obs.N("segments", int64(pending.NumSegments())))
	}
	p.mu.Lock()
	id := pending.Commit()
	p.stats.NumDocs++
	p.stats.NumSegments += pending.NumSegments()
	gaugeDocs.Set(int64(p.stats.NumDocs))
	p.mu.Unlock()
	if tr != nil {
		tr.Event("add.committed", obs.N("doc_id", int64(id)))
	}
	tm.Stop()
	return id, nil
}

// Epoch returns the collection epoch: a counter that advances on every
// committed mutation (and on snapshot load, via epochBase). Because Eq
// 9's scoring statistics are collection-global, any mutation changes
// every document's scores — so a cached Related result is valid exactly
// as long as the epoch it was computed under is still current. Serving
// layers key their result caches by this value; see internal/cache.
func (p *Pipeline) Epoch() uint64 { return p.epochBase + p.matcher.Generation() }

// HasDoc reports whether docID names a document of the collection, the
// id-validation predicate for serving.
func (p *Pipeline) HasDoc(docID int) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return docID >= 0 && docID < p.stats.NumDocs
}

// StatsReport is the pipeline's self-description, the GET /stats body
// of a server over it: the offline build breakdown (Stats, durations in
// nanoseconds), the shard topology, the Table 3 segment granularity of
// the current collection, then the serving layer's hygiene blocks.
type StatsReport struct {
	Method      string            `json:"method"`
	NumDocs     int               `json:"num_docs"`
	NumSegments int               `json:"num_segments"`
	NumClusters int               `json:"num_clusters"`
	Shards      int               `json:"shards,omitempty"`
	ShardDocs   []int             `json:"shard_docs,omitempty"`
	PhaseNS     map[string]int64  `json:"phase_ns"`
	Granularity GranularityReport `json:"granularity"`
	cache.LayerStats
}

// GranularityReport carries the Table 3 rows: the share of posts with
// 1, 2, 3, 4, and 5+ segments, before grouping and after refinement.
type GranularityReport struct {
	Buckets []string           `json:"buckets"`
	Before  map[string]float64 `json:"before,omitempty"`
	After   map[string]float64 `json:"after,omitempty"`
}

// Describe returns the pipeline's StatsReport around the serving
// layer's hygiene blocks.
func (p *Pipeline) Describe(hygiene cache.LayerStats) any {
	st := p.Stats()
	before, after := p.SegmentCounts()
	shardDocs := p.ShardDocs()
	return StatsReport{
		Method:      p.Method(),
		NumDocs:     st.NumDocs,
		NumSegments: st.NumSegments,
		NumClusters: p.NumClusters(),
		Shards:      len(shardDocs),
		ShardDocs:   shardDocs,
		PhaseNS: map[string]int64{
			"preprocess":    int64(st.Preprocess),
			"segmentation":  int64(st.Segmentation),
			"vectorization": int64(st.Vectorization),
			"clustering":    int64(st.Clustering),
			"refinement":    int64(st.Refinement),
			"grouping":      int64(st.Grouping),
			"indexing":      int64(st.Indexing),
		},
		Granularity: GranularityReport{
			Buckets: GranularityBuckets(),
			Before:  GranularityDistribution(before),
			After:   GranularityDistribution(after),
		},
		LayerStats: hygiene,
	}
}

// GranularityDistribution summarizes a segment-count vector into the
// percentage rows of Table 3: the share of posts with 1, 2, 3, 4, and 5+
// segments.
func GranularityDistribution(counts []int) map[string]float64 {
	if len(counts) == 0 {
		return nil
	}
	buckets := map[string]float64{}
	for _, c := range counts {
		switch {
		case c <= 1:
			buckets["1"]++
		case c == 2:
			buckets["2"]++
		case c == 3:
			buckets["3"]++
		case c == 4:
			buckets["4"]++
		default:
			buckets["5-8"]++
		}
	}
	for k := range buckets {
		buckets[k] = buckets[k] / float64(len(counts)) * 100
	}
	return buckets
}

// GranularityBuckets returns the Table 3 row labels in display order.
func GranularityBuckets() []string { return []string{"1", "2", "3", "4", "5-8"} }

// TopIDs extracts just the document ids of a result list.
func TopIDs(results []Result) []int {
	out := make([]int, len(results))
	for i, r := range results {
		out[i] = r.DocID
	}
	return out
}

// SortByID orders a result list by document id (for deterministic display).
func SortByID(results []Result) {
	sort.Slice(results, func(i, j int) bool { return results[i].DocID < results[j].DocID })
}
