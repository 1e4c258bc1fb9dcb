package match

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
	"repro/internal/variant"
)

// These tests exist to run under -race: they interleave Add with Match
// and every read accessor on all three MR configurations, which is
// exactly the serving pattern the online phase promises to support. They
// also assert the post-conditions that make the interleaving observable
// as correct, not merely race-free.

func mrConcurrencyConfigs() map[string]MRConfig {
	return map[string]MRConfig{
		"IntentIntent-MR": {},
		"SentIntent-MR":   {Strategy: variant.Sentences{}},
		"Content-MR":      {Strategy: variant.TextTiling{}, Vectorize: termBuckets, Group: GroupKMeans(8)},
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

func TestConcurrentAddAssignsSequentialIDs(t *testing.T) {
	// Commit order defines document ids: after N concurrent Adds the ids
	// must be exactly base..base+N-1 with consistent per-doc accounting.
	tc := buildCorpus(t, forum.Travel, 60, 72)
	mr := NewMR("IntentIntent-MR", tc.docs[:40], MRConfig{})

	extra := tc.docs[40:]
	got := make([]int, len(extra))
	var wg sync.WaitGroup
	for i := range extra {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = mr.Add(extra[i])
		}(i)
	}
	wg.Wait()
	seen := make([]bool, len(extra))
	for _, id := range got {
		idx := id - 40
		if idx < 0 || idx >= len(extra) || seen[idx] {
			t.Fatalf("id %d out of range or duplicated (got %v)", id, got)
		}
		seen[idx] = true
	}
	if n := mr.Stats().NumSegments; n <= 0 {
		t.Fatalf("NumSegments = %d after adds", n)
	}
}

func TestConcurrentMatchIsDeterministic(t *testing.T) {
	// Parallel per-intention queries must not change results: the same
	// query from many goroutines returns identical rankings and scores.
	tc := buildCorpus(t, forum.TechSupport, 100, 73)
	mr := NewMR("IntentIntent-MR", tc.docs, MRConfig{Workers: 4})
	want := mr.Match(7, 5)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := mr.Match(7, 5)
				if len(got) != len(want) {
					t.Errorf("concurrent Match returned %d results, want %d", len(got), len(want))
					return
				}
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("result %d = %+v, want %+v", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentWriteToDuringAdds(t *testing.T) {
	// Persistence may run while adds are in flight; each snapshot must be
	// internally consistent (decodable, with matching doc accounting).
	tc := buildCorpus(t, forum.TechSupport, 70, 74)
	mr := NewMR("IntentIntent-MR", tc.docs[:50], MRConfig{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, d := range tc.docs[50:] {
			mr.Add(d)
		}
	}()
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if _, err := mr.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo during adds: %v", err)
		}
		loaded, err := ReadMR(buf.Bytes(), nil)
		if err != nil {
			t.Fatalf("ReadMR of mid-add snapshot: %v", err)
		}
		b, a := loaded.SegmentCounts()
		if loaded.NumDocs() < 50 || len(b) != loaded.NumDocs() || len(a) != loaded.NumDocs() {
			t.Fatalf("inconsistent snapshot: %d docs, %d/%d segment counts",
				loaded.NumDocs(), len(b), len(a))
		}
	}
	<-done
}
