package segment

import (
	"reflect"
	"testing"
)

func TestStrategyNames(t *testing.T) {
	cases := map[string]Strategy{
		"Tile":       Tile{},
		"StepbyStep": StepbyStep{},
		"Greedy":     Greedy{},
		"TopDown":    TopDown{},
		"Sentences":  Sentences{},
		"TextTiling": TextTiling{},
	}
	for want, st := range cases {
		if got := st.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestOptionDefaults(t *testing.T) {
	if (Tile{}).c() != 1.1 || (Tile{C: 0.3}).c() != 0.3 {
		t.Error("Tile.C default wrong")
	}
	if (Greedy{}).c() != -0.25 || (Greedy{C: 0.5}).c() != 0.5 {
		t.Error("Greedy.C default wrong")
	}
	if (Greedy{}).quorum() != 4 || (Greedy{Quorum: 2}).quorum() != 2 {
		t.Error("Greedy.Quorum default wrong")
	}
	if (Greedy{}).minDepth() != 0.06 || (Greedy{MinDepth: 0.2}).minDepth() != 0.2 {
		t.Error("Greedy.MinDepth default wrong")
	}
	if (Greedy{MinDepth: -1}).minDepth() != 0 {
		t.Error("negative MinDepth should disable the floor")
	}
	if (TextTiling{}).blockSize() != 2 || (TextTiling{BlockSize: 5}).blockSize() != 5 {
		t.Error("TextTiling.BlockSize default wrong")
	}
	if (TextTiling{}).c() != 0.5 || (TextTiling{C: 2}).c() != 2 {
		t.Error("TextTiling.C default wrong")
	}
}

func TestDocTerms(t *testing.T) {
	d := NewDoc("The printers were printing pages. The hotel pool was warm.")
	all := d.Terms(0, d.Len())
	if len(all) == 0 {
		t.Fatal("no terms extracted")
	}
	first := d.Terms(0, 1)
	second := d.Terms(1, 2)
	if want := []string{"printer", "print", "page"}; !reflect.DeepEqual(first, want) {
		t.Errorf("Terms(0, 1) = %v, want %v", first, want)
	}
	if len(first)+len(second) != len(all) {
		t.Errorf("term ranges do not partition: %d + %d != %d", len(first), len(second), len(all))
	}
	// Terms are stemmed and stopword-filtered.
	for _, term := range all {
		switch term {
		case "the", "were", "was":
			t.Errorf("stopword %q survived", term)
		case "printers", "printing":
			t.Errorf("unstemmed term %q survived", term)
		}
	}
}

func TestCosineSimEdgeCases(t *testing.T) {
	a := []float64{1, 2, 0, 0, 0, 0, 0, 0}
	if got := cosineSim(a, a); got < 0.999 || got > 1.001 {
		t.Errorf("self similarity = %v", got)
	}
	empty := make([]float64, len(a))
	if got := cosineSim(empty, empty); got != 1 {
		t.Errorf("two empty vectors similarity = %v, want 1", got)
	}
	if got := cosineSim(a, empty); got != 0 {
		t.Errorf("empty vs non-empty similarity = %v, want 0", got)
	}
	orth := []float64{7: 3}
	if got := cosineSim(a, orth); got != 0 {
		t.Errorf("orthogonal similarity = %v, want 0", got)
	}
}

func TestSegmentationDeterminism(t *testing.T) {
	// Every strategy must produce identical borders across repeated runs on
	// the same Doc (no hidden randomness).
	d := NewDoc(threeIntentions)
	strategies := []Strategy{Tile{}, StepbyStep{}, Greedy{}, TopDown{}, TextTiling{}}
	for _, st := range strategies {
		first := st.Segment(d)
		for i := 0; i < 5; i++ {
			again := st.Segment(d)
			if len(again.Borders) != len(first.Borders) {
				t.Fatalf("%s nondeterministic", st.Name())
			}
			for j := range first.Borders {
				if again.Borders[j] != first.Borders[j] {
					t.Fatalf("%s nondeterministic", st.Name())
				}
			}
		}
	}
}
