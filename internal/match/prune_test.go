package match

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/forum"
	"repro/internal/index"
)

// withPruneGate forces the index layer's max-score gate on (or off) for
// one test, restoring the default on cleanup.
func withPruneGate(t *testing.T, minUnits int) {
	t.Helper()
	old := index.PruneMinUnits
	index.PruneMinUnits = minUnits
	t.Cleanup(func() { index.PruneMinUnits = old })
}

// TestMatchPrunedEquivalence is the matcher-level half of the pruning
// equivalence proof: the full Algorithm 1 + 2 ranking with the
// max-score scan engaged on every cluster probe must be bit-identical —
// documents, order, float scores — to the exhaustive ranking, across
// configuration variants (threshold selection reads list heads, so it
// is sensitive to any list perturbation) and across incremental adds.
func TestMatchPrunedEquivalence(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 200, 9)
	configs := []struct {
		name string
		cfg  MRConfig
	}{
		{"default", MRConfig{Seed: 7}},
		{"threshold", MRConfig{Seed: 7, ScoreThreshold: 0.3}},
		{"normalized", MRConfig{Seed: 7, NormalizeLists: true}},
	}
	for _, cv := range configs {
		t.Run(cv.name, func(t *testing.T) {
			mr := NewMR("MR", tc.docs, cv.cfg)
			for _, k := range []int{1, 5, 20} {
				for d := 0; d < mr.NumDocs(); d += 3 {
					withGate := func(min int) []Result {
						old := index.PruneMinUnits
						index.PruneMinUnits = min
						defer func() { index.PruneMinUnits = old }()
						return mr.Match(d, k)
					}
					want := withGate(math.MaxInt) // exhaustive on every cluster
					got := withGate(1)            // pruned on every cluster
					if len(want) != len(got) {
						t.Fatalf("doc %d k=%d: %d exhaustive vs %d pruned results", d, k, len(want), len(got))
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("doc %d k=%d result %d: exhaustive %v != pruned %v", d, k, i, want[i], got[i])
						}
					}
				}
			}
		})
	}
}

// TestMatchExplainedPrunedReconciles pins the satellite requirement
// that explain mode is pruning-proof: explanations always score
// exhaustively through index.Explain, so with the pruned scan serving
// the ranking, each served score must still equal its explanation's
// cluster-contribution sum within 1e-9 — and the served score itself
// must be the bit-exact exhaustive score (checked against the gate-off
// ranking above; here we check the reconciliation that DESIGN.md
// promises for /related?explain).
func TestMatchExplainedPrunedReconciles(t *testing.T) {
	withPruneGate(t, 1)
	tc := buildCorpus(t, forum.TechSupport, 160, 4)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 7})
	for d := 0; d < mr.NumDocs(); d += 5 {
		res, exps := mr.MatchExplained(d, 5, nil)
		served := mr.Match(d, 5)
		if len(res) != len(served) {
			t.Fatalf("doc %d: explained %d results, served %d", d, len(res), len(served))
		}
		for i := range res {
			if res[i] != served[i] {
				t.Fatalf("doc %d result %d: explained ranking %v != served %v", d, i, res[i], served[i])
			}
			var sum float64
			for _, c := range exps[i].Clusters {
				sum += c.Score
			}
			if math.Abs(sum-res[i].Score) > 1e-9 {
				t.Errorf("doc %d result %d: cluster contributions sum %g, served score %g", d, i, sum, res[i].Score)
			}
		}
	}
}

// TestScanOrderDecidedFromProbedClusters pins when Algorithm 1's probes
// are reordered: never for a single probe or when none of the probed
// clusters reaches the pruning gate (the default — and then without
// allocating); otherwise the pruning probes first, by descending bound,
// and the exhaustive ones after them in segment order.
func TestScanOrderDecidedFromProbedClusters(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 200, 9)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 7})
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	checked := false
	for d := 0; d < mr.NumDocs(); d++ {
		probes := mr.probesLocked(d)
		if got := mr.scanOrderLocked(probes); got != nil {
			t.Fatalf("doc %d, default gate: order %v, want nil", d, got)
		}
		if allocs := testing.AllocsPerRun(10, func() { mr.scanOrderLocked(probes) }); allocs != 0 {
			t.Fatalf("doc %d, default gate: %v allocations", d, allocs)
		}
		largest, size := -1, 0
		for i, q := range probes {
			if n := mr.clusters[q.Cluster].NumUnits(); n > size {
				largest, size = i, n
			} else if n == size {
				largest = -1 // no single largest cluster to tell apart
			}
		}
		withGate := func(min int) []int {
			old := index.PruneMinUnits
			index.PruneMinUnits = min
			defer func() { index.PruneMinUnits = old }()
			return mr.scanOrderLocked(probes)
		}
		all := withGate(1)
		if len(probes) < 2 {
			if all != nil {
				t.Fatalf("doc %d, one probe: order %v, want nil", d, all)
			}
			continue
		}
		if len(all) != len(probes) {
			t.Fatalf("doc %d, every cluster pruning: order %v over %d probes", d, all, len(probes))
		}
		if largest < 0 {
			continue
		}
		// Only the largest probed cluster prunes: its probe leads, the rest
		// keep segment order.
		want := []int{largest}
		for i := range probes {
			if i != largest {
				want = append(want, i)
			}
		}
		if got := withGate(size); !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d, gate %d: order %v, want %v", d, size, got, want)
		}
		checked = true
	}
	if !checked {
		t.Fatal("no document probes clusters of different sizes")
	}
}
