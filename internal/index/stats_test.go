package index

import (
	"fmt"
	"math/rand"
	"testing"
)

// statsCorpus generates a deterministic synthetic unit stream with a
// vocabulary small enough to force cross-unit term sharing (so df > 1
// and the pIDF floor at 0 both get exercised).
func statsCorpus(n int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%02d", i)
	}
	units := make([][]string, n)
	for i := range units {
		terms := make([]string, 3+rng.Intn(12))
		for j := range terms {
			terms[j] = vocab[rng.Intn(len(vocab))]
		}
		// A near-stopword: appears in most units, so its smoothed pIDF
		// floors at zero and the tIDF==0 skip path must agree across the
		// partitioned and whole builds.
		if rng.Intn(10) > 0 {
			terms = append(terms, "common")
		}
		units[i] = terms
	}
	return units
}

// buildPartitioned splits the unit stream across nParts pool-attached
// indices (round-robin by global unit id, in ascending order — the
// order the sharding layer guarantees) and returns the partitions, the
// pool, and the global→(partition, local) mapping.
func buildPartitioned(units [][]string, nParts int) ([]*Index, *GlobalStats, [][2]int) {
	gs, dict := NewGlobalStats(), NewDict()
	parts := make([]*Index, nParts)
	for p := range parts {
		parts[p] = NewIn(dict)
		parts[p].AttachStats(gs)
	}
	loc := make([][2]int, len(units))
	for g, terms := range units {
		p := g % nParts
		l := parts[p].Add(terms)
		loc[g] = [2]int{p, l}
	}
	return parts, gs, loc
}

// TestPartitionedScoringBitIdentical is the index-level half of the
// sharding equivalence guarantee: every Eq 7–9 quantity — per-posting
// weight, per-term pIDF, and full query scores — computed by a
// pool-attached partition must equal the unsharded index's value
// bit-for-bit, including after incremental additions to both sides.
func TestPartitionedScoringBitIdentical(t *testing.T) {
	units := statsCorpus(60, 7)
	extra := statsCorpus(20, 11)

	for _, nParts := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("parts-%d", nParts), func(t *testing.T) {
			full := New()
			for _, terms := range units {
				full.Add(terms)
			}
			parts, gs, loc := buildPartitioned(units, nParts)

			verify := func(stage string) {
				t.Helper()
				if gs.Units() != full.NumUnits() {
					t.Fatalf("%s: pooled units = %d, unsharded = %d", stage, gs.Units(), full.NumUnits())
				}
				for g, pl := range loc {
					p, l := pl[0], pl[1]
					for _, term := range []string{"t00", "t07", "t33", "common", "absent"} {
						if got, want := parts[p].Weight(term, l), full.Weight(term, g); got != want {
							t.Fatalf("%s: Weight(%q, unit %d) = %v on partition %d, unsharded %v", stage, term, g, got, p, want)
						}
						if got, want := parts[p].IDF(term), full.IDF(term); got != want {
							t.Fatalf("%s: IDF(%q) = %v on partition %d, unsharded %v", stage, term, got, p, want)
						}
					}
				}
				// Full query scores: every unit's score from its partition
				// must be the exact float the whole index computes.
				q := TermFrequencies(units[3])
				wantScores := map[int]float64{}
				for _, r := range full.Query(q, len(loc), nil) {
					wantScores[r.Unit] = r.Score
				}
				got := 0
				for p, part := range parts {
					for _, r := range part.Query(q, len(loc), nil) {
						gID := -1
						for g, pl := range loc {
							if pl[0] == p && pl[1] == r.Unit {
								gID = g
								break
							}
						}
						if gID < 0 {
							t.Fatalf("%s: partition %d returned unmapped unit %d", stage, p, r.Unit)
						}
						if want, ok := wantScores[gID]; !ok || want != r.Score {
							t.Fatalf("%s: unit %d scored %v on partition %d, unsharded %v", stage, gID, r.Score, p, want)
						}
						got++
					}
				}
				if got != len(wantScores) {
					t.Fatalf("%s: partitions scored %d units, unsharded %d", stage, got, len(wantScores))
				}
			}
			verify("after build")

			// Incremental additions on both sides, same global order.
			for _, terms := range extra {
				g := full.Add(terms)
				p := g % nParts
				l := parts[p].Add(terms)
				loc = append(loc, [2]int{p, l})
			}
			verify("after incremental adds")
		})
	}
}

// TestGlobalStatsAccessors pins the pool's aggregate view and the
// Stats() attachment accessor.
func TestGlobalStatsAccessors(t *testing.T) {
	gs, dict := NewGlobalStats(), NewDict()
	a, b := NewIn(dict), NewIn(dict)
	a.Add([]string{"x", "y", "x"})
	if a.Stats() != nil {
		t.Fatal("unattached index reports a pool")
	}
	a.AttachStats(gs)
	b.AttachStats(gs)
	b.Add([]string{"y", "z"})
	if a.Stats() != gs || b.Stats() != gs {
		t.Fatal("Stats() does not return the attached pool")
	}
	if gs.Units() != 2 {
		t.Fatalf("Units = %d, want 2", gs.Units())
	}
	if gs.TotalUnique() != 4 { // {x,y} + {y,z}
		t.Fatalf("TotalUnique = %d, want 4", gs.TotalUnique())
	}
	for term, want := range map[string]int{"x": 1, "y": 2, "z": 1, "w": 0} {
		if got := gs.DocFreq(term); got != want {
			t.Fatalf("DocFreq(%q) = %d, want %d", term, got, want)
		}
	}
}
