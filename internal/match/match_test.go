package match

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
	"repro/internal/variant"
)

// testCorpus bundles a generated corpus with its prepared forms.
type testCorpus struct {
	posts []forum.Post
	docs  []*segment.Doc
}

func buildCorpus(t testing.TB, domain forum.Domain, n int, seed int64) *testCorpus {
	t.Helper()
	posts := forum.Generate(forum.Config{Domain: domain, NumPosts: n, Seed: seed})
	tc := &testCorpus{posts: posts}
	for _, p := range posts {
		tc.docs = append(tc.docs, segment.NewDoc(p.Text))
	}
	return tc
}

func checkResults(t *testing.T, name string, res []Result, docID, k int) {
	t.Helper()
	if len(res) > k {
		t.Errorf("%s returned %d results for k=%d", name, len(res), k)
	}
	for i, r := range res {
		if r.DocID == docID {
			t.Errorf("%s returned the query document", name)
		}
		if i > 0 && r.Score > res[i-1].Score {
			t.Errorf("%s results not sorted", name)
		}
	}
}

func TestMRIntentIntentBuild(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 150, 5)
	mr := NewMR("IntentIntent-MR", tc.docs, MRConfig{})
	if mr.NumClusters() < 2 {
		t.Fatalf("only %d intention clusters formed", mr.NumClusters())
	}
	if mr.NumClusters() > 25 {
		// The paper reports 3-5 intention clusters on 100K+ post corpora;
		// on a 150-post corpus the k-distance eps estimate is noisier, so
		// only guard against pathological fragmentation here.
		t.Errorf("%d clusters — pathological fragmentation", mr.NumClusters())
	}
	stats := mr.Stats()
	if stats.NumSegments < len(tc.docs) {
		t.Errorf("fewer segments than documents: %d", stats.NumSegments)
	}
	before, after := mr.SegmentCounts()
	if len(before) != len(tc.docs) || len(after) != len(tc.docs) {
		t.Fatal("segment count vectors wrong length")
	}
	for i := range before {
		if after[i] > before[i] {
			t.Errorf("doc %d: refinement increased segments %d → %d", i, before[i], after[i])
		}
		if after[i] < 1 {
			t.Errorf("doc %d lost all segments", i)
		}
	}
	if len(mr.Centroids()) != mr.NumClusters() {
		t.Error("centroid count mismatch")
	}
	sizes := mr.ClusterSizes()
	var total int
	for _, s := range sizes {
		total += s
	}
	var afterTotal int
	for _, a := range after {
		afterTotal += a
	}
	if total != afterTotal {
		t.Errorf("cluster sizes sum %d != refined segments %d", total, afterTotal)
	}
}

func TestMRMatch(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 150, 6)
	mr := NewMR("IntentIntent-MR", tc.docs, MRConfig{})
	found := 0
	for q := 0; q < 20; q++ {
		res := mr.Match(q, 5)
		checkResults(t, "MR", res, q, 5)
		if len(res) > 0 {
			found++
		}
	}
	if found < 15 {
		t.Errorf("MR returned results for only %d/20 queries", found)
	}
	if mr.Match(-1, 5) != nil || mr.Match(0, 0) != nil {
		t.Error("degenerate queries should return nil")
	}
}

func TestMRVariants(t *testing.T) {
	tc := buildCorpus(t, forum.Travel, 100, 7)
	variants := []*MR{
		NewMR("IntentIntent-MR", tc.docs, MRConfig{Strategy: segment.Greedy{}}),
		NewMR("SentIntent-MR", tc.docs, MRConfig{Strategy: variant.Sentences{}}),
		NewMR("Content-MR", tc.docs, MRConfig{Strategy: variant.TextTiling{}, Vectorize: termBuckets, Group: GroupKMeans(8)}),
	}
	for _, mr := range variants {
		res := mr.Match(3, 5)
		checkResults(t, mr.Name(), res, 3, 5)
		if mr.NumClusters() == 0 {
			t.Errorf("%s built no clusters", mr.Name())
		}
	}
	// SentIntent segments are sentences: strictly more raw segments than
	// Greedy's merged segments.
	if variants[1].Stats().NumSegments <= variants[0].Stats().NumSegments {
		t.Errorf("sentence segmentation should produce more raw segments (%d vs %d)",
			variants[1].Stats().NumSegments, variants[0].Stats().NumSegments)
	}
}

func precision(res []Result, rel map[int]bool) float64 {
	if len(res) == 0 {
		return 0
	}
	hits := 0
	for _, r := range res {
		if rel[r.DocID] {
			hits++
		}
	}
	return float64(hits) / float64(len(res))
}

func TestMREmptyAndTinyCorpus(t *testing.T) {
	mr := NewMR("empty", nil, MRConfig{})
	if mr.Match(0, 5) != nil {
		t.Error("empty corpus should match nothing")
	}
	tiny := buildCorpus(t, forum.TechSupport, 3, 10)
	mr = NewMR("tiny", tiny.docs, MRConfig{})
	res := mr.Match(0, 5)
	checkResults(t, "tiny", res, 0, 5)
}

func BenchmarkMRBuild(b *testing.B) {
	tc := buildCorpus(b, forum.TechSupport, 100, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMR("IntentIntent-MR", tc.docs, MRConfig{})
	}
}

func BenchmarkMRMatch(b *testing.B) {
	tc := buildCorpus(b, forum.TechSupport, 500, 12)
	mr := NewMR("IntentIntent-MR", tc.docs, MRConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr.Match(i%500, 5)
	}
}

func TestMatcherNames(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 30, 71)
	mr := NewMR("Custom-MR", tc.docs, MRConfig{})
	if mr.Name() != "Custom-MR" {
		t.Errorf("MR name = %q", mr.Name())
	}
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	// The build fan-out must not change the result: an MR built under
	// GOMAXPROCS 1 and under 8 must agree on clusters, unit ownership,
	// and match results (the -race run of this test also covers the
	// parallel clustering and parallel Phase-3 indexing paths).
	tc := buildCorpus(t, forum.TechSupport, 60, 17)
	build := func(procs int) *MR {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return NewMR("MR", tc.docs, MRConfig{Seed: 42})
	}
	serial, parallel := build(1), build(8)
	if s, p := serial.ClusterSizes(), parallel.ClusterSizes(); !reflect.DeepEqual(s, p) {
		t.Fatalf("cluster sizes %v (serial) != %v (parallel)", s, p)
	}
	for q := 0; q < 10; q++ {
		if sr, pr := serial.Match(q, 5), parallel.Match(q, 5); !reflect.DeepEqual(sr, pr) {
			t.Fatalf("query %d: serial %+v != parallel %+v", q, sr, pr)
		}
	}
}
