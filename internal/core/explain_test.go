package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/forum"
)

// TestExplainReconcilesOnGoldenCorpus is the explain-mode acceptance
// gate: over the same 200-post corpus the golden ranking test pins, for
// EVERY document's top-k results, the sum of the per-cluster explain
// contributions must equal the served score within 1e-9 — and within
// each cluster, the per-term Eq 7–9 products must sum to the cluster's
// contribution to the same tolerance. The explained result list itself
// must be identical to the unexplained one.
func TestExplainReconcilesOnGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full 200-post build plus 200 explained queries")
	}
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: goldenPosts, Seed: goldenSeed})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	p, err := Build(texts, Config{Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	explained := 0
	for doc := 0; doc < goldenPosts; doc++ {
		want := p.Related(doc, goldenK)
		ans, err := p.Query(context.Background(), doc, goldenK, true)
		if err != nil {
			t.Fatal(err)
		}
		got, exps := ans.Results, ans.Explanations
		if len(got) != len(want) {
			t.Fatalf("doc %d: explained returned %d results, plain %d", doc, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("doc %d result %d: explained %+v != plain %+v", doc, i, got[i], want[i])
			}
			exp := exps[i]
			var clusterSum float64
			for _, c := range exp.Clusters {
				clusterSum += c.Score
				var termSum float64
				for _, tc := range c.Terms {
					termSum += tc.Contribution
				}
				if d := math.Abs(termSum - c.Score); d > tol {
					t.Fatalf("doc %d → %d cluster %d: term sum %v vs cluster score %v (Δ %g)",
						doc, exp.DocID, c.Cluster, termSum, c.Score, d)
				}
			}
			if d := math.Abs(clusterSum - exp.Score); d > tol {
				t.Fatalf("doc %d → %d: cluster sum %v vs served score %v (Δ %g)",
					doc, exp.DocID, clusterSum, exp.Score, d)
			}
			explained++
		}
	}
	if explained == 0 {
		t.Fatal("no results were explained")
	}
	t.Logf("reconciled %d explained results across %d queries", explained, goldenPosts)
}
