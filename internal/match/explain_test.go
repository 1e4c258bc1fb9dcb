package match

import (
	"math"
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
	"repro/internal/variant"
)

// explainDocs prepares a small corpus for the explain tests.
func explainDocs(t *testing.T, n int) []*segment.Doc {
	t.Helper()
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: n, Seed: 99})
	docs := make([]*segment.Doc, len(posts))
	for i, p := range posts {
		docs[i] = segment.NewDoc(p.Text)
	}
	return docs
}

// checkExplanations asserts the full reconciliation contract for one
// query: explained results identical to Match's, cluster contributions
// summing to the served score, and term products summing to each
// cluster contribution, all within tol.
func checkExplanations(t *testing.T, want []Result, got []Result, exps []Explanation, tol float64) {
	t.Helper()
	if len(got) != len(want) || len(exps) != len(want) {
		t.Fatalf("explained query returned %d results / %d explanations, want %d", len(got), len(exps), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID || got[i].Score != want[i].Score {
			t.Fatalf("result %d: explained (%d, %v) != plain (%d, %v)",
				i, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
		}
		exp := exps[i]
		if exp.DocID != want[i].DocID || exp.Score != want[i].Score {
			t.Fatalf("explanation %d misaligned: (%d, %v) vs result (%d, %v)",
				i, exp.DocID, exp.Score, want[i].DocID, want[i].Score)
		}
		if len(exp.Clusters) == 0 {
			t.Fatalf("explanation %d (doc %d) has no cluster contributions for score %v",
				i, exp.DocID, exp.Score)
		}
		var clusterSum float64
		for _, c := range exp.Clusters {
			clusterSum += c.Score
			var termSum float64
			for _, tc := range c.Terms {
				termSum += tc.Contribution
				if tc.Term == "" {
					t.Fatalf("doc %d cluster %d: empty term", exp.DocID, c.Cluster)
				}
				if tc.Contribution != 0 && math.Abs(tc.Contribution) < math.Abs(tc.QueryTF*tc.Weight*tc.IDF)/1e6 {
					t.Fatalf("doc %d cluster %d term %q: contribution %v inconsistent with factors %v·%v·%v",
						exp.DocID, c.Cluster, tc.Term, tc.Contribution, tc.QueryTF, tc.Weight, tc.IDF)
				}
			}
			if d := math.Abs(termSum - c.Score); d > tol {
				t.Fatalf("doc %d cluster %d: term products sum to %v, cluster score %v (Δ %g > %g)",
					exp.DocID, c.Cluster, termSum, c.Score, d, tol)
			}
		}
		if d := math.Abs(clusterSum - exp.Score); d > tol {
			t.Fatalf("doc %d: cluster contributions sum to %v, served score %v (Δ %g > %g)",
				exp.DocID, clusterSum, exp.Score, d, tol)
		}
	}
}

func TestMRMatchExplainedReconciles(t *testing.T) {
	docs := explainDocs(t, 120)
	for name, cfg := range map[string]MRConfig{
		"default": {Seed: 7},
		"dbscan":  {Group: variant.GroupDBSCAN, Seed: 7},
	} {
		t.Run(name, func(t *testing.T) {
			mr := NewMR("explain-test", docs, cfg)
			for doc := 0; doc < 30; doc++ {
				want := mr.Match(doc, 5)
				got, exps := mr.MatchExplained(doc, 5, nil)
				checkExplanations(t, want, got, exps, 1e-9)
			}
		})
	}
}

func TestMRMatchExplainedEdgeCases(t *testing.T) {
	docs := explainDocs(t, 40)
	mr := NewMR("explain-edge", docs, MRConfig{Seed: 7})
	if res, exps := mr.MatchExplained(0, 0, nil); res != nil || exps != nil {
		t.Fatal("k=0 must return nils")
	}
	if res, exps := mr.MatchExplained(-1, 5, nil); res != nil || exps != nil {
		t.Fatal("negative doc id must return nils")
	}
	if res, exps := mr.MatchExplained(len(docs)+5, 5, nil); res != nil || exps != nil {
		t.Fatal("out-of-range doc id must return nils")
	}
}

func TestMRMatchExplainedAfterAdd(t *testing.T) {
	// Explanations must reconcile for (and against) incrementally added
	// documents too — their segments join existing clusters via
	// nearest-centroid assignment.
	docs := explainDocs(t, 80)
	mr := NewMR("explain-add", docs[:70], MRConfig{Seed: 7})
	var addedID int
	for _, d := range docs[70:] {
		addedID = mr.Add(d)
	}
	for _, doc := range []int{0, 35, addedID} {
		want := mr.Match(doc, 5)
		got, exps := mr.MatchExplained(doc, 5, nil)
		checkExplanations(t, want, got, exps, 1e-9)
	}
}

func TestExplainerInterface(t *testing.T) {
	var _ Explainer = NewMR("iface", explainDocs(t, 30), MRConfig{Seed: 7})
}
