package cm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/textproc"
)

func TestShannonIndexBasics(t *testing.T) {
	if got := shannonIndex(nil); got != 0 {
		t.Errorf("shannonIndex(nil) = %v, want 0", got)
	}
	if got := shannonIndex([]float64{0, 0, 0}); got != 0 {
		t.Errorf("shannonIndex(zeros) = %v, want 0", got)
	}
	// Single non-zero value: perfectly concentrated → 0 diversity.
	if got := shannonIndex([]float64{5, 0, 0}); got != 0 {
		t.Errorf("shannonIndex(concentrated) = %v, want 0", got)
	}
	// Uniform over 3: maximal diversity log10(3).
	want := float64(math.Log10(3))
	if got := shannonIndex([]float64{2, 2, 2}); math.Abs(got-want) > 1e-12 {
		t.Errorf("shannonIndex(uniform3) = %v, want %v", got, want)
	}
	// Paper example: [2,3,0] → −(2/5)log(2/5) − (3/5)log(3/5).
	wantEx := -(float64(0.4*math.Log10(0.4)) + float64(0.6*math.Log10(0.6)))
	if got := shannonIndex([]float64{2, 3, 0}); math.Abs(got-wantEx) > 1e-12 {
		t.Errorf("shannonIndex([2,3,0]) = %v, want %v", got, wantEx)
	}
}

func TestRichnessIndex(t *testing.T) {
	if got := RichnessIndex([]float64{1, 0, 3}); got != 2.0/3.0 {
		t.Errorf("RichnessIndex = %v, want 2/3", got)
	}
	if got := RichnessIndex(nil); got != 0 {
		t.Errorf("RichnessIndex(nil) = %v, want 0", got)
	}
	if got := RichnessIndex([]float64{1, 1}); got != 1 {
		t.Errorf("RichnessIndex(full) = %v, want 1", got)
	}
}

func TestCoherenceBounds(t *testing.T) {
	// A one-sentence segment is maximally coherent per mean with one value.
	sents := textproc.SplitSentences("I installed the driver.")
	a := annotate(sents[0])
	coh := coherence(a)
	if coh <= 0 || coh > 1 {
		t.Errorf("Coherence = %v, want in (0,1]", coh)
	}
	// An empty annotation has coherence exactly 1 (all diversities 0).
	var empty Annotation
	if got := coherence(empty); got != 1 {
		t.Errorf("coherence(empty) = %v, want 1", got)
	}
}

func TestCoherenceDropsWithMixedIntentions(t *testing.T) {
	// A grammatically homogeneous segment should be more coherent than a
	// segment mixing tense, person and style.
	homog := textproc.SplitSentences("I installed the driver. I rebooted the machine. I checked the logs.")
	mixed := textproc.SplitSentences("I installed the driver. Will it degrade performance? The system was repaired.")
	cohH := coherence(merge(AnnotateAll(homog), 0, len(homog)))
	cohM := coherence(merge(AnnotateAll(mixed), 0, len(mixed)))
	if cohH <= cohM {
		t.Errorf("homogeneous coherence %v should exceed mixed coherence %v", cohH, cohM)
	}
}

func TestScoreBorderDeepVsShallow(t *testing.T) {
	// Deep border: first-person past narrative vs interrogative request.
	left := merge(AnnotateAll(textproc.SplitSentences(
		"I installed the update. I rebooted twice. I checked every cable.")), 0, 3)
	right := merge(AnnotateAll(textproc.SplitSentences(
		"Do you know a fix? Can you suggest a driver? Should I reformat the disk?")), 0, 3)
	deepScore, deepDepth := ScoreBorder(left, right, shannonIndex)

	// Shallow border: two halves of the same narrative.
	rightSame := merge(AnnotateAll(textproc.SplitSentences(
		"I replaced the cable. I reinstalled the driver. I tested the printer.")), 0, 3)
	_, shallowDepth := ScoreBorder(left, rightSame, shannonIndex)

	if deepDepth <= shallowDepth {
		t.Errorf("deep border depth %v should exceed shallow depth %v", deepDepth, shallowDepth)
	}
	if deepScore <= 0 {
		t.Errorf("deep border score = %v, want > 0", deepScore)
	}
	// A merged span whose cells are all non-zero has richness coherence
	// 0, where Eq 3 would divide by zero: its depth is 0.
	if got := Depth(0.9, 0.9, 0); got != 0 {
		t.Errorf("Depth with zero merged coherence = %v, want 0", got)
	}
}

// shannonIndexDirect is the pre-lookup-table shannonIndex: the reference
// the table fast path must match bit for bit.
func shannonIndexDirect(table []float64) float64 {
	var all float64
	for _, c := range table {
		all += c
	}
	if all == 0 {
		return 0
	}
	var div float64
	for _, c := range table {
		if c <= 0 {
			continue
		}
		p := c / all
		div -= float64(p * math.Log10(p))
	}
	return div
}

// TestShannonIndexTableBitIdentical locks in that the small-integer lookup
// path returns exactly what the direct computation returns — on integer
// tables inside and outside the table's domain, and on fractional tables
// that must fall through to the slow path.
func TestShannonIndexTableBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(6)
		table := make([]float64, n)
		for i := range table {
			switch trial % 3 {
			case 0: // small integers: table hits
				table[i] = float64(rng.Intn(8))
			case 1: // large integers: overflow the table domain
				table[i] = float64(rng.Intn(200))
			default: // fractional: slow path
				table[i] = math.Floor(rng.Float64()*40) / 4
			}
		}
		got := shannonIndex(table)
		want := shannonIndexDirect(table)
		if got != want {
			t.Fatalf("trial %d table %v: shannonIndex = %v, direct = %v", trial, table, got, want)
		}
	}
}

// TestShannonFastPathsMatchGeneric locks in that the pointer-based direct
// Shannon scorers are bit-identical to the generic DiversityFunc forms.
func TestShannonFastPathsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		var a, b Annotation
		for i := range a.Counts {
			a.Counts[i] = float64(rng.Intn(10))
			b.Counts[i] = float64(rng.Intn(10))
		}
		a.Words, b.Words = rng.Intn(40), rng.Intn(40)
		if got, want := ShannonCoherence(&a), CoherenceWith(a, shannonIndex); got != want {
			t.Fatalf("ShannonCoherence = %v, generic = %v", got, want)
		}
		for m := Mean(0); m < NumMeans; m++ {
			if got, want := ShannonCoherenceOfMean(&a, m), coherenceOfMean(a, m, shannonIndex); got != want {
				t.Fatalf("mean %d: ShannonCoherenceOfMean = %v, generic = %v", m, got, want)
			}
		}
		gs, gd := ShannonScoreBorder(&a, &b)
		ws, wd := ScoreBorder(a, b, shannonIndex)
		if gs != ws || gd != wd {
			t.Fatalf("ShannonScoreBorder = (%v, %v), generic = (%v, %v)", gs, gd, ws, wd)
		}
		var sum, sum2 Annotation
		a.AddInto(&b, &sum)
		sum2 = a.Add(b)
		if sum != sum2 {
			t.Fatalf("AddInto != Add")
		}
		var diff Annotation
		sum.SubInto(&b, &diff)
		if diff != sum.Sub(b) {
			t.Fatalf("SubInto != Sub")
		}
	}
}
