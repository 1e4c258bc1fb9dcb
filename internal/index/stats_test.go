package index

import "testing"

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
