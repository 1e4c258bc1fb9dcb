package segment

import (
	"reflect"
	"testing"
)

func TestStrategyNames(t *testing.T) {
	for _, g := range []Greedy{{}, {Plain: true}} {
		if got := g.Name(); got != "Greedy" {
			t.Errorf("Name() = %q, want %q", got, "Greedy")
		}
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

func TestSegmentationDeterminism(t *testing.T) {
	// Greedy must produce identical borders across repeated runs on the
	// same Doc (no hidden randomness).
	d := NewDoc(threeIntentions)
	for _, g := range []Greedy{{}, {Plain: true}} {
		first := g.Segment(d)
		for i := 0; i < 5; i++ {
			if again := g.Segment(d); !reflect.DeepEqual(again, first) {
				t.Fatalf("%+v nondeterministic: %v then %v", g, first.Borders, again.Borders)
			}
		}
	}
}
