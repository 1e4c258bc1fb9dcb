package match

import (
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
)

func TestAddPreservesRetrievalQuality(t *testing.T) {
	// Build on the first half, Add the second half, and confirm precision
	// stays in the same band as a from-scratch build over everything.
	posts := forum.Generate(forum.Config{Domain: forum.Travel, NumPosts: 200, Seed: 33})
	var docs []*segment.Doc
	for _, p := range posts {
		docs = append(docs, segment.NewDoc(p.Text))
	}
	incr := NewMR("incr", docs[:100], MRConfig{})
	for _, d := range docs[100:] {
		incr.Add(d)
	}
	full := NewMR("full", docs, MRConfig{})

	var pIncr, pFull float64
	const queries = 40
	for q := 0; q < queries; q++ {
		rel := forum.RelevantSet(posts, posts[q])
		pIncr += precision(incr.Match(q, 5), rel)
		pFull += precision(full.Match(q, 5), rel)
	}
	pIncr /= queries
	pFull /= queries
	t.Logf("incremental=%.3f full-rebuild=%.3f", pIncr, pFull)
	if pIncr < pFull-0.15 {
		t.Errorf("incremental precision %.3f degraded far below rebuild %.3f", pIncr, pFull)
	}
}

func TestDriftStats(t *testing.T) {
	tc := buildCorpus(t, forum.Programming, 100, 35)
	mr := NewMR("m", tc.docs, MRConfig{})
	minS, maxS := mr.DriftStats()
	if minS <= 0 || maxS < minS {
		t.Errorf("DriftStats = %d, %d", minS, maxS)
	}
}
