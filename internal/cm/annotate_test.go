package cm

import (
	"testing"

	"repro/internal/textproc"
)

// AnnotateAll annotates every sentence of a document.
func AnnotateAll(sents []textproc.Sentence) []Annotation {
	out := make([]Annotation, len(sents))
	for i, s := range sents {
		out[i] = annotate(s)
	}
	return out
}

func annotateText(t *testing.T, text string) Annotation {
	t.Helper()
	sents := textproc.SplitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("expected one sentence, got %d: %q", len(sents), text)
	}
	return annotate(sents[0])
}

func TestAnnotatePresentFirstPerson(t *testing.T) {
	a := annotateText(t, "I have an HP system with a RAID controller.")
	if a.Counts[TensePresent] == 0 {
		t.Error("expected present-tense count")
	}
	if a.Counts[TensePast] != 0 || a.Counts[TenseFuture] != 0 {
		t.Errorf("unexpected past/future counts: %v %v", a.Counts[TensePast], a.Counts[TenseFuture])
	}
	if a.Counts[SubjectFirst] != 1 {
		t.Errorf("SubjectFirst = %v, want 1", a.Counts[SubjectFirst])
	}
	if a.Counts[StyleAffirmative] != 1 {
		t.Errorf("StyleAffirmative = %v, want 1", a.Counts[StyleAffirmative])
	}
	if a.Counts[StatusActive] != 1 || a.Counts[StatusPassive] != 0 {
		t.Errorf("Status = passive %v active %v, want active", a.Counts[StatusPassive], a.Counts[StatusActive])
	}
}

func TestAnnotatePastTense(t *testing.T) {
	a := annotateText(t, "My boss gave me a computer yesterday.")
	if a.Counts[TensePast] == 0 {
		t.Error("expected past-tense count")
	}
	if a.Counts[TenseFuture] != 0 {
		t.Error("unexpected future count")
	}
}

func TestAnnotateFuture(t *testing.T) {
	a := annotateText(t, "I will install the update tomorrow.")
	if a.Counts[TenseFuture] == 0 {
		t.Error("expected future count for 'will install'")
	}
	a = annotateText(t, "It is going to crash again.")
	if a.Counts[TenseFuture] == 0 {
		t.Error("expected future count for 'going to crash'")
	}
}

func TestAnnotatePerfectIsPast(t *testing.T) {
	a := annotateText(t, "Friends have downloaded the Cloudera distribution.")
	if a.Counts[TensePast] == 0 {
		t.Error("present perfect should count as past event")
	}
}

func TestAnnotateInterrogative(t *testing.T) {
	for _, text := range []string{
		"Do you know whether it would perform ok?",
		"Why does it stop.",
		"Can I add an extra drive without rebuilding.",
	} {
		a := annotateText(t, text)
		if a.Counts[StyleInterrogative] != 1 {
			t.Errorf("%q: StyleInterrogative = %v, want 1", text, a.Counts[StyleInterrogative])
		}
	}
}

func TestAnnotateNegative(t *testing.T) {
	a := annotateText(t, "It didn't work at all.")
	if a.Counts[StyleNegative] != 1 {
		t.Errorf("StyleNegative = %v, want 1", a.Counts[StyleNegative])
	}
	a = annotateText(t, "I do not want to install Linux.")
	if a.Counts[StyleNegative] != 1 {
		t.Errorf("StyleNegative = %v, want 1", a.Counts[StyleNegative])
	}
}

func TestAnnotateInterrogativeBeatsNegative(t *testing.T) {
	a := annotateText(t, "Why didn't it work?")
	if a.Counts[StyleInterrogative] != 1 || a.Counts[StyleNegative] != 0 {
		t.Errorf("question with negation should count interrogative only: %v", a.Counts)
	}
}

func TestAnnotatePassive(t *testing.T) {
	a := annotateText(t, "The driver was installed by the technician.")
	if a.Counts[StatusPassive] != 1 {
		t.Errorf("StatusPassive = %v, want 1", a.Counts[StatusPassive])
	}
	a = annotateText(t, "The laptop got repaired last week.")
	if a.Counts[StatusPassive] != 1 {
		t.Errorf("get-passive: StatusPassive = %v, want 1", a.Counts[StatusPassive])
	}
}

func TestAnnotatePOSCounts(t *testing.T) {
	a := annotateText(t, "The old printer prints blank pages slowly.")
	if a.Counts[POSVerb] == 0 {
		t.Error("expected verb count")
	}
	if a.Counts[POSNoun] < 2 {
		t.Errorf("POSNoun = %v, want >= 2", a.Counts[POSNoun])
	}
	if a.Counts[POSAdjAdv] < 2 {
		t.Errorf("POSAdjAdv = %v, want >= 2 (old, slowly)", a.Counts[POSAdjAdv])
	}
}

func TestAnnotateSubjectPersons(t *testing.T) {
	a := annotateText(t, "I told you that they failed.")
	if a.Counts[SubjectFirst] != 1 || a.Counts[SubjectSecond] != 1 || a.Counts[SubjectThird] != 1 {
		t.Errorf("subject counts = %v/%v/%v, want 1/1/1",
			a.Counts[SubjectFirst], a.Counts[SubjectSecond], a.Counts[SubjectThird])
	}
}

func TestAnnotateNoVerbNoStatus(t *testing.T) {
	a := annotateText(t, "Lovely hotel, great location.")
	if a.Counts[StatusActive] != 0 || a.Counts[StatusPassive] != 0 {
		t.Errorf("verbless sentence should have no Status counts: %v %v",
			a.Counts[StatusActive], a.Counts[StatusPassive])
	}
}

func TestMergeAndAdd(t *testing.T) {
	sents := textproc.SplitSentences("I installed Linux. It didn't boot. Will it ever work?")
	anns := AnnotateAll(sents)
	if len(anns) != 3 {
		t.Fatalf("got %d annotations, want 3", len(anns))
	}
	merged := merge(anns, 0, 3)
	var styleTotal float64
	for f := StyleInterrogative; f <= StyleAffirmative; f++ {
		styleTotal += merged.Counts[f]
	}
	if styleTotal != 3 {
		t.Errorf("merged style total = %v, want 3 (one per sentence)", styleTotal)
	}
	if merged.Words != anns[0].Words+anns[1].Words+anns[2].Words {
		t.Error("merged word count mismatch")
	}
	// Merge of a subrange.
	m2 := merge(anns, 1, 2)
	if m2 != anns[1] {
		t.Error("Merge of single element should equal that element")
	}
}

func TestAnnotationTableAndTotal(t *testing.T) {
	var a Annotation
	a.Counts[TensePresent] = 2
	a.Counts[TensePast] = 3
	tab := a.table(Tense)
	if len(tab) != 3 || tab[0] != 2 || tab[1] != 3 || tab[2] != 0 {
		t.Errorf("Table(Tense) = %v", tab)
	}
	if a.Total(Tense) != 5 {
		t.Errorf("Total(Tense) = %v, want 5", a.Total(Tense))
	}
	// Mutating the returned table must not alias the annotation.
	tab[0] = 99
	if a.Counts[TensePresent] != 2 {
		t.Error("Table returned an aliased slice")
	}
}

func TestMeanOfAndFeaturesOf(t *testing.T) {
	if MeanOf(TensePast) != Tense {
		t.Error("MeanOf(TensePast) != Tense")
	}
	if MeanOf(StatusActive) != Status {
		t.Error("MeanOf(StatusActive) != Status")
	}
	if MeanOf(POSAdjAdv) != PartOfSpeech {
		t.Error("MeanOf(POSAdjAdv) != PartOfSpeech")
	}
	lo, hi := FeaturesOf(Status)
	if hi-lo != 2 || Feature(lo) != StatusPassive {
		t.Errorf("FeaturesOf(Status) = [%d,%d)", lo, hi)
	}
	// The offsets must tile [0, NumFeatures) exactly.
	covered := 0
	for m := Mean(0); m < NumMeans; m++ {
		lo, hi := FeaturesOf(m)
		covered += hi - lo
	}
	if covered != int(NumFeatures) {
		t.Errorf("means cover %d features, want %d", covered, NumFeatures)
	}
}

func TestStringNames(t *testing.T) {
	if Tense.String() != "CM_tense" || Style.String() != "CM_qneg" {
		t.Error("Mean.String mismatch")
	}
	if TenseFuture.String() != "Future" || SubjectSecond.String() != "You" {
		t.Error("Feature.String mismatch")
	}
}

// annotate computes the communication-means annotation of one sentence.
func annotate(sent textproc.Sentence) Annotation {
	tags, _ := TagSentence(nil, nil, sent.Text)
	return AnnotateTagged(sent, tags)
}

// merge combines the annotations of a half-open sentence range [lo, hi)
// into the annotation of the segment they form.
func merge(anns []Annotation, lo, hi int) Annotation {
	var a Annotation
	for i := lo; i < hi; i++ {
		a = a.Add(anns[i])
	}
	return a
}

// table returns the distribution table (DSb) of mean m: a copy of the count
// vector over the mean's categorical values.
func (a Annotation) table(m Mean) []float64 {
	lo, hi := FeaturesOf(m)
	out := make([]float64, hi-lo)
	copy(out, a.Counts[lo:hi])
	return out
}
