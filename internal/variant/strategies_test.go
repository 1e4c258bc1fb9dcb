package variant

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/segment"
)

// docA is the motivating post of Fig. 1: context (present, first person),
// question (interrogative), past report, motive.
const docA = "I have an HP system with a RAID 0 controller and 4 disks in form " +
	"of a JBOD. I would like to install Hadoop with a replication 4 HDFS and " +
	"only 320GB of disk space used from every disc. Do you know whether it " +
	"would perform ok or whether the partial use of the disk would degrade " +
	"performance. Friends have downloaded the Cloudera distribution but it " +
	"didn't work. It stopped since the web site was suggesting to have 1TB " +
	"disks. I am asking because I do not want to install Linux to find that " +
	"my HW configuration is not right."

// threeIntentions is a post with three sharply different blocks: past
// narrative, interrogative request, present description.
const threeIntentions = "I installed the driver last week. I rebooted the machine twice. " +
	"I checked every cable in the office. " +
	"Do you know a better driver? Can you suggest a fix? Should I reformat the whole disk? " +
	"The printer is an HP model. It has a duplex unit. The tray holds paper."

func TestStrategyNames(t *testing.T) {
	cases := map[string]segment.Strategy{
		"Tile":       Tile{},
		"StepbyStep": StepbyStep{},
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
	if (TextTiling{}).blockSize() != 2 || (TextTiling{BlockSize: 5}).blockSize() != 5 {
		t.Error("TextTiling.BlockSize default wrong")
	}
	if (TextTiling{}).c() != 0.5 || (TextTiling{C: 2}).c() != 2 {
		t.Error("TextTiling.C default wrong")
	}
}

func TestStrategiesProduceValidSegmentations(t *testing.T) {
	docs := []*segment.Doc{
		segment.NewDoc(docA),
		segment.NewDoc(threeIntentions),
		segment.NewDoc("Single sentence only."),
		segment.NewDoc(""),
	}
	strategies := []segment.Strategy{Tile{}, StepbyStep{}, TopDown{}, Sentences{}, TextTiling{}}
	for _, d := range docs {
		for _, st := range strategies {
			seg := st.Segment(d)
			if seg.N != d.Len() {
				t.Errorf("%s: N = %d, want %d", st.Name(), seg.N, d.Len())
			}
			prev := 0
			for _, b := range seg.Borders {
				if b <= prev || b >= d.Len() {
					t.Errorf("%s: invalid border %d (n=%d, prev=%d)", st.Name(), b, d.Len(), prev)
				}
				prev = b
			}
		}
	}
}

func TestSegmentationDeterminism(t *testing.T) {
	// Every strategy must produce identical borders across repeated runs on
	// the same Doc (no hidden randomness).
	d := segment.NewDoc(threeIntentions)
	for _, st := range []segment.Strategy{Tile{}, StepbyStep{}, TopDown{}, TextTiling{}} {
		first := st.Segment(d)
		for i := 0; i < 5; i++ {
			if again := st.Segment(d); !reflect.DeepEqual(again, first) {
				t.Fatalf("%s nondeterministic: %v then %v", st.Name(), first.Borders, again.Borders)
			}
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

func TestSentencesStrategy(t *testing.T) {
	d := segment.NewDoc(docA)
	s := Sentences{}.Segment(d)
	if s.NumSegments() != d.Len() {
		t.Fatalf("Sentences strategy: %d segments, want %d", s.NumSegments(), d.Len())
	}
}

func TestMergingStrategiesBelowSentences(t *testing.T) {
	// Tile and Greedy merge; they must never exceed the finest
	// segmentation, and on multi-intention text they should merge at least
	// something.
	docs := []*segment.Doc{segment.NewDoc(docA), segment.NewDoc(threeIntentions)}
	for _, d := range docs {
		maxB := d.Len() - 1
		tile := len(Tile{}.Segment(d).Borders)
		greedy := len(segment.Greedy{}.Segment(d).Borders)
		if tile > maxB || greedy > maxB {
			t.Fatalf("strategy produced more borders than sentence gaps")
		}
		if tile == maxB && greedy == maxB {
			t.Errorf("neither Tile nor Greedy merged anything on %d-sentence doc", d.Len())
		}
	}
}

func TestStepbyStepOverSegments(t *testing.T) {
	// Fig 8(a): StepbyStep returns way more borders than the others.
	d := segment.NewDoc(threeIntentions)
	sbs := len(StepbyStep{}.Segment(d).Borders)
	greedy := len(segment.Greedy{}.Segment(d).Borders)
	if sbs < greedy {
		t.Errorf("StepbyStep %d borders < Greedy %d borders", sbs, greedy)
	}
}

func TestScoreFuncsWellBehaved(t *testing.T) {
	d := segment.NewDoc(threeIntentions)
	n := d.Len()
	funcs := []ScoreFunc{Shannon{}, Richness{}, Cosine, Euclidean, Manhattan}
	for _, f := range funcs {
		for b := 1; b < n; b++ {
			s := f.BorderScore(d, 0, b, n)
			if s < 0 || s > 2 {
				t.Errorf("%s: BorderScore(0,%d,%d) = %v out of range", f.Name(), b, n, s)
			}
		}
		coh := f.SegCoherence(d, 0, n)
		if coh < -1e-9 || coh > 1+1e-9 {
			t.Errorf("%s: SegCoherence = %v out of [0,1]", f.Name(), coh)
		}
		switch f.(type) {
		case Shannon, Richness:
			// Diversity-based coherence of a single unit may be below 1.
		default:
			if got := f.SegCoherence(d, 2, 3); got != 1 {
				t.Errorf("%s: single-unit coherence = %v, want 1", f.Name(), got)
			}
		}
	}
}

func TestDistanceNames(t *testing.T) {
	if Cosine.Name() != "Cos.Sim." || Euclidean.Name() != "Eucl.Dist." || Manhattan.Name() != "Manh.Dist." {
		t.Error("distance names mismatch with Fig 9 labels")
	}
	if (Shannon{}).Name() != "Shan.Div." || (Richness{}).Name() != "Richness" {
		t.Error("diversity names mismatch")
	}
}

func TestVectorDistanceProperties(t *testing.T) {
	f := func(av, bv [6]uint8) bool {
		a, b := make([]float64, 6), make([]float64, 6)
		for i := range a {
			a[i], b[i] = float64(av[i]%7), float64(bv[i]%7)
		}
		for _, kind := range []distanceKind{cosineDist, euclideanDist, manhattanDist} {
			d := vectorDistance(kind, a, b)
			if d < -1e-9 || d > 1+1e-9 {
				return false
			}
			// Symmetry.
			if dd := vectorDistance(kind, b, a); dd-d > 1e-9 || d-dd > 1e-9 {
				return false
			}
			// Identity: distance to itself is 0.
			if self := vectorDistance(kind, a, a); self > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTextTilingSegmentsTopicShift(t *testing.T) {
	// Two topically distinct halves with cohesive vocabulary inside each.
	text := "The printer jams on every printed page. The printer toner leaks on the paper. " +
		"The paper tray of the printer sticks. The printer queue fills with paper errors. " +
		"The hotel room faced the hotel pool. The hotel breakfast had fresh fruit. " +
		"The pool of the hotel stayed warm. The hotel staff cleaned the room and pool."
	d := segment.NewDoc(text)
	seg := TextTiling{}.Segment(d)
	found := false
	for _, b := range seg.Borders {
		if b == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("TextTiling missed the topic shift at sentence 4: borders %v", seg.Borders)
	}
}

func TestTopDownOnIntentionShift(t *testing.T) {
	d := segment.NewDoc(threeIntentions)
	seg := TopDown{}.Segment(d)
	if seg.N != d.Len() {
		t.Fatalf("TopDown N mismatch")
	}
	// Should produce a plausible number of segments (not all-singletons).
	if seg.NumSegments() > 6 {
		t.Errorf("TopDown over-segmented: %d segments", seg.NumSegments())
	}
}

func TestFStatScoreFunc(t *testing.T) {
	d := segment.NewDoc(threeIntentions)
	f := FStat{}
	if f.Name() != "F-stat" {
		t.Error("name mismatch")
	}
	// Border between narrative and questions (position 3) should outscore a
	// border inside the narrative (position 1).
	inside := f.BorderScore(d, 0, 1, 3)
	shift := f.BorderScore(d, 0, 3, 6)
	if shift <= inside {
		t.Errorf("F-stat at intention shift %.3f should exceed within-intention %.3f", shift, inside)
	}
	for b := 1; b < d.Len(); b++ {
		s := f.BorderScore(d, 0, b, d.Len())
		if s < 0 || s >= 1 {
			t.Errorf("F-stat score %v out of [0,1)", s)
		}
	}
	if got := f.SegCoherence(d, 2, 3); got != 1 {
		t.Errorf("single-unit coherence = %v, want 1", got)
	}
	coh := f.SegCoherence(d, 0, d.Len())
	if coh <= 0 || coh > 1 {
		t.Errorf("segment coherence %v out of (0,1]", coh)
	}
	// Degenerate groups: a two-unit document has no third unit to widen
	// the window to.
	if got := f.BorderScore(segment.NewDoc("I rebooted it. Can you help?"), 0, 1, 2); got != 0 {
		t.Errorf("two-unit F-stat should be 0 (insufficient df), got %v", got)
	}
}

// TestTileWithFStat: F-stat Tile finds borders in a three-intention text
// and keeps fewer than every sentence gap. (Scored over one unit a side,
// every border read 0 and all were kept.)
func TestTileWithFStat(t *testing.T) {
	d := segment.NewDoc(threeIntentions)
	seg := Tile{Score: FStat{}}.Segment(d)
	if seg.N != d.Len() {
		t.Fatal("bad segmentation")
	}
	if seg.NumSegments() < 2 {
		t.Error("F-stat Tile found no borders in three-intention text")
	}
	if len(seg.Borders) >= d.Len()-1 {
		t.Errorf("F-stat Tile kept %d borders of %d sentence gaps", len(seg.Borders), d.Len()-1)
	}
}
