package match

import (
	"sync"
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
	"repro/internal/variant"
)

// These tests exist to run under -race: they interleave Add with Match
// and every read accessor on the two MR configurations the served
// pipeline never builds, and assert the post-conditions that make the
// interleaving observable as correct, not merely race-free. The served
// configuration, IntentIntent-MR, is checked through the server, every
// answer against the model: serve.TestHistoriesMatchModel.

func mrConcurrencyConfigs() map[string]MRConfig {
	return map[string]MRConfig{
		"SentIntent-MR": {Strategy: variant.Sentences{}},
		"Content-MR":    {Strategy: variant.TextTiling{}, Vectorize: termBuckets, Group: GroupKMeans(8)},
	}
}

// termBuckets stands in for Content-MR's hashed TF vectors (built in
// internal/baseline): a segment's terms counted into 16 buckets by their
// first byte.
func termBuckets(d *segment.Doc, lo, hi int) []float64 {
	v := make([]float64, 16)
	for _, t := range d.Terms(lo, hi) {
		v[t[0]%16]++
	}
	return v
}

func TestConcurrentAddAndMatch(t *testing.T) {
	const (
		basePosts  = 80
		extraPosts = 24
		readers    = 4
	)
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: basePosts + extraPosts, Seed: 71})
	var docs []*segment.Doc
	for _, p := range posts {
		docs = append(docs, segment.NewDoc(p.Text))
	}

	for name, cfg := range mrConcurrencyConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			mr := NewMR(name, docs[:basePosts], cfg)

			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Readers hammer the full query surface until the writers finish.
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for q := r; ; q = (q + 3) % basePosts {
						select {
						case <-stop:
							return
						default:
						}
						mr.Match(q, 5)
						mr.Stats()
						mr.NumDocs()
						mr.ClusterSizes()
						mr.DriftStats()
						mr.SegmentCounts()
					}
				}(r)
			}
			// Writers add concurrently — with the readers and each other.
			ids := make(chan int, extraPosts)
			var aw sync.WaitGroup
			for w := 0; w < 2; w++ {
				aw.Add(1)
				go func(w int) {
					defer aw.Done()
					for i := w; i < extraPosts; i += 2 {
						ids <- mr.Add(docs[basePosts+i])
					}
				}(w)
			}
			aw.Wait()
			close(stop)
			wg.Wait()
			close(ids)

			// Every id was assigned exactly once, densely.
			seen := map[int]bool{}
			for id := range ids {
				if id < basePosts || id >= basePosts+extraPosts || seen[id] {
					t.Fatalf("bad or duplicate doc id %d", id)
				}
				seen[id] = true
			}
			if got := mr.NumDocs(); got != basePosts+extraPosts {
				t.Fatalf("NumDocs = %d, want %d", got, basePosts+extraPosts)
			}
			before, after := mr.SegmentCounts()
			if len(before) != basePosts+extraPosts || len(after) != basePosts+extraPosts {
				t.Fatalf("segment counts %d/%d docs, want %d", len(before), len(after), basePosts+extraPosts)
			}
			// Added documents are queryable and never match themselves.
			for id := basePosts; id < basePosts+extraPosts; id++ {
				for _, r := range mr.Match(id, 5) {
					if r.DocID == id {
						t.Fatalf("doc %d matched itself", id)
					}
				}
			}
		})
	}
}
