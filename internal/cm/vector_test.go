package cm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/textproc"
)

func TestWithinSegmentWeightsSumToOnePerMean(t *testing.T) {
	sents := textproc.SplitSentences("I installed Linux. It didn't boot. Will it ever work?")
	seg := merge(AnnotateAll(sents), 0, len(sents))
	w := WithinSegmentWeights(seg)
	for m := Mean(0); m < NumMeans; m++ {
		lo, hi := FeaturesOf(m)
		var sum float64
		for f := lo; f < hi; f++ {
			sum += w[f]
		}
		if seg.Total(m) > 0 && math.Abs(sum-1) > 1e-9 {
			t.Errorf("mean %v weights sum to %v, want 1", m, sum)
		}
		if seg.Total(m) == 0 && sum != 0 {
			t.Errorf("mean %v absent but weights sum to %v", m, sum)
		}
	}
}

func TestWithinDocumentWeightsPaperExample(t *testing.T) {
	// Paper example (Sec 6): five past-tense verbs in the document, four in
	// the segment → weight 4/5.
	var doc, seg Annotation
	doc.Counts[TensePast] = 5
	seg.Counts[TensePast] = 4
	w := withinDocumentWeights(seg, doc)
	if w[TensePast] != 0.8 {
		t.Errorf("within-document weight = %v, want 0.8", w[TensePast])
	}
}

func TestWithinDocumentWeightsBounds(t *testing.T) {
	sents := textproc.SplitSentences("I installed Linux. It failed. Do you know why? The vendor was called.")
	anns := AnnotateAll(sents)
	doc := merge(anns, 0, len(anns))
	seg := merge(anns, 0, 2)
	w := withinDocumentWeights(seg, doc)
	for i, v := range w {
		if v < 0 || v > 1+1e-12 {
			t.Errorf("weight[%d] = %v, out of [0,1]", i, v)
		}
	}
	// Whole document as one segment → all present features weigh 1.
	wAll := withinDocumentWeights(doc, doc)
	for i, v := range wAll {
		if doc.Counts[i] > 0 && math.Abs(v-1) > 1e-12 {
			t.Errorf("whole-doc weight[%d] = %v, want 1", i, v)
		}
	}
}

func TestWeightVectorLayout(t *testing.T) {
	sents := textproc.SplitSentences("I installed Linux. It failed.")
	anns := AnnotateAll(sents)
	doc := merge(anns, 0, len(anns))
	vec := WeightVector(anns[0], doc)
	if len(vec) != VectorLen {
		t.Fatalf("len(WeightVector) = %d, want %d", len(vec), VectorLen)
	}
	w1 := WithinSegmentWeights(anns[0])
	w2 := withinDocumentWeights(anns[0], doc)
	for i := 0; i < int(NumFeatures); i++ {
		if vec[i] != w1[i] {
			t.Fatalf("vec[%d] != within-segment weight", i)
		}
		if vec[int(NumFeatures)+i] != w2[i] {
			t.Fatalf("vec[%d] != within-document weight", int(NumFeatures)+i)
		}
	}
}

// Property: weight vectors never contain NaN/Inf and Eq 5 components are in
// [0,1] regardless of counts.
func TestWeightVectorFiniteProperty(t *testing.T) {
	f := func(counts [NumFeatures]uint8, docExtra [NumFeatures]uint8) bool {
		var seg, doc Annotation
		for i := 0; i < int(NumFeatures); i++ {
			seg.Counts[i] = float64(counts[i] % 20)
			doc.Counts[i] = seg.Counts[i] + float64(docExtra[i]%20)
		}
		for i, v := range WeightVector(seg, doc) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			if v < 0 || v > 1+1e-12 {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorFeatureName(t *testing.T) {
	if got := VectorFeatureName(0); !strings.Contains(got, "CM_tense") || !strings.Contains(got, "within-segment") {
		t.Errorf("VectorFeatureName(0) = %q", got)
	}
	if got := VectorFeatureName(int(NumFeatures)); !strings.Contains(got, "within-document") {
		t.Errorf("VectorFeatureName(%d) = %q", int(NumFeatures), got)
	}
}
