package match

import (
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
)

func TestAddDocument(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 120, 31)
	mr := NewMR("IntentIntent-MR", tc.docs, MRConfig{})
	baseDocs := mr.NumDocs()
	baseSegs := mr.Stats().NumSegments

	// Fold in 20 more posts from the same distribution.
	extra := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 140, Seed: 31})[120:]
	var ids []int
	for _, p := range extra {
		ids = append(ids, mr.Add(segment.NewDoc(p.Text)))
	}
	if mr.NumDocs() != baseDocs+20 {
		t.Fatalf("NumDocs = %d, want %d", mr.NumDocs(), baseDocs+20)
	}
	for i, id := range ids {
		if id != baseDocs+i {
			t.Fatalf("Add returned id %d, want %d", id, baseDocs+i)
		}
	}
	if mr.Stats().NumSegments <= baseSegs {
		t.Error("segment count did not grow")
	}

	// Added documents are queryable in both directions.
	res := mr.Match(ids[0], 5)
	if len(res) == 0 {
		t.Fatal("added document matches nothing")
	}
	for _, r := range res {
		if r.DocID == ids[0] {
			t.Fatal("added document matched itself")
		}
	}
	// And an old query can now retrieve a new document.
	found := false
	for q := 0; q < baseDocs && !found; q++ {
		for _, r := range mr.Match(q, 10) {
			if r.DocID >= baseDocs {
				found = true
			}
		}
	}
	if !found {
		t.Error("no old query ever retrieves an added document")
	}

	// Segment accounting for added docs stays consistent.
	before, after := mr.SegmentCounts()
	if len(before) != baseDocs+20 || len(after) != baseDocs+20 {
		t.Fatal("segment count vectors not extended")
	}
	for i := baseDocs; i < len(after); i++ {
		if after[i] < 1 {
			t.Errorf("added doc %d has no refined segments", i)
		}
		if after[i] > before[i] {
			t.Errorf("added doc %d gained segments in refinement", i)
		}
	}
}

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
