package core

import (
	"testing"

	"repro/internal/forum"
)

func corpusTexts(t testing.TB, d forum.Domain, n int, seed int64) ([]string, []forum.Post) {
	t.Helper()
	posts := forum.Generate(forum.Config{Domain: d, NumPosts: n, Seed: seed})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	return texts, posts
}

func TestBuildStatsPopulated(t *testing.T) {
	texts, _ := corpusTexts(t, forum.Travel, 60, 3)
	p, err := Build(texts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.NumDocs != 60 {
		t.Errorf("NumDocs = %d", s.NumDocs)
	}
	if s.NumSegments < 60 {
		t.Errorf("NumSegments = %d, want >= NumDocs", s.NumSegments)
	}
	if s.NumClusters < 1 {
		t.Errorf("NumClusters = %d", s.NumClusters)
	}
	if s.Preprocess <= 0 || s.Segmentation <= 0 {
		t.Error("timings not recorded")
	}
	if p.NumClusters() != s.NumClusters {
		t.Error("NumClusters accessor mismatch")
	}
	if len(p.Centroids()) != s.NumClusters {
		t.Error("Centroids length mismatch")
	}
}

func TestSegmentCountsRefinement(t *testing.T) {
	texts, _ := corpusTexts(t, forum.TechSupport, 80, 5)
	p, err := Build(texts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before, after := p.SegmentCounts()
	if len(before) != 80 || len(after) != 80 {
		t.Fatal("segment count vectors wrong length")
	}
	for i := range before {
		if after[i] > before[i] {
			t.Errorf("doc %d gained segments in refinement", i)
		}
	}
}

func precisionOf(res []Result, rel map[int]bool) float64 {
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

func TestGranularityDistribution(t *testing.T) {
	dist := GranularityDistribution([]int{1, 1, 2, 3, 4, 5, 8})
	var sum float64
	for _, pct := range dist {
		sum += pct
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("distribution sums to %v", sum)
	}
	if dist["1"] < dist["2"] {
		t.Errorf("bucket 1 should be largest: %v", dist)
	}
	if GranularityDistribution(nil) != nil {
		t.Error("empty input should give nil")
	}
	if len(GranularityBuckets()) != 5 {
		t.Error("bucket labels wrong")
	}
}

func TestHelpers(t *testing.T) {
	res := []Result{{DocID: 9, Score: 3}, {DocID: 2, Score: 1}}
	ids := TopIDs(res)
	if ids[0] != 9 || ids[1] != 2 {
		t.Errorf("TopIDs = %v", ids)
	}
	SortByID(res)
	if res[0].DocID != 2 {
		t.Error("SortByID failed")
	}
}

func TestBuildHTMLInput(t *testing.T) {
	texts := []string{
		"<p>I have an HP printer.</p><p>It does not print anymore. Do you know a fix?</p>",
		"<div>My printer shows an error. I replaced the toner. What should I try?</div>",
		"Plain post about a hotel pool. The pool was warm. Would you recommend it for kids?",
	}
	p, err := Build(texts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A segment holds at least one sentence.
	if before, _ := p.SegmentCounts(); before[0] < 2 {
		t.Errorf("HTML post cut into %d segments, want its sentences apart", before[0])
	}
	if !p.HasDoc(2) || p.HasDoc(-1) || p.HasDoc(3) {
		t.Error("HasDoc admits other ids than 0..2")
	}
}

func TestMethodString(t *testing.T) {
	if IntentIntentMR.String() != "IntentIntent-MR" {
		t.Error("Method.String mismatch")
	}
}

func TestHealthDomainOutOfSample(t *testing.T) {
	// The Health domain is not part of the paper's evaluation; it checks
	// that nothing in the pipeline is fit to the three canonical domains.
	texts, posts := corpusTexts(t, forum.Health, 200, 9)
	intent, err := Build(texts, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var pi float64
	const queries = 40
	for q := 0; q < queries; q++ {
		pi += precisionOf(intent.Related(q, 5), forum.RelevantSet(posts, posts[q]))
	}
	t.Logf("Health: IntentIntent=%.3f", pi/queries)
	if pi/queries < 0.2 {
		t.Errorf("IntentIntent collapsed on out-of-sample domain: %.3f", pi/queries)
	}
}
