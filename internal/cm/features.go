// Package cm implements the communication means (CM) machinery of the
// paper: the Table-1 feature schema, per-sentence annotation into
// distribution tables (DSb), the Shannon-diversity / richness measures
// (Eq 1), segment coherence (Eq 2), border depth (Eq 3), border score
// (Eq 4), and the two segment weight vectors used for intention clustering
// (Eq 5 and Eq 6).
//
// A communication mean is a categorical variable observable throughout a
// text: verb Tense takes the values {present, past, future}, Subject takes
// {first, second, third person}, and so on. A shift in the joint
// distribution of these variables signals a shift in the author's
// intention, the way a shift in term distribution signals a topic change.
package cm

// Mean identifies one communication mean — one row of Table 1.
type Mean int

const (
	// Tense distinguishes present, past, and future verb groups.
	Tense Mean = iota
	// Subject distinguishes first-, second-, and third-person references.
	Subject
	// Style distinguishes interrogative, negative, and affirmative sentences
	// (CM_qneg in the paper).
	Style
	// Status distinguishes passive from active voice (CM_pasact).
	Status
	// PartOfSpeech distinguishes verbs, nouns, and adjectives/adverbs
	// (CM_pos).
	PartOfSpeech

	// NumMeans is the number of communication means.
	NumMeans
)

var meanNames = [...]string{
	Tense: "CM_tense", Subject: "CM_subj", Style: "CM_qneg",
	Status: "CM_pasact", PartOfSpeech: "CM_pos",
}

// String returns the paper's name for the mean.
func (m Mean) String() string {
	if int(m) < len(meanNames) {
		return meanNames[m]
	}
	return "CM_?"
}

// Feature identifies one categorical value of one mean — one cell of
// Table 1. Features are laid out contiguously so a 14-element vector indexed
// by Feature is the concatenation of the per-mean distribution tables.
type Feature int

const (
	TensePresent Feature = iota
	TensePast
	TenseFuture
	SubjectFirst
	SubjectSecond
	SubjectThird
	StyleInterrogative
	StyleNegative
	StyleAffirmative
	StatusPassive
	StatusActive
	POSVerb
	POSNoun
	POSAdjAdv

	// NumFeatures is the total number of features across all means.
	NumFeatures
)

var featureNames = [...]string{
	TensePresent: "Present", TensePast: "Past", TenseFuture: "Future",
	SubjectFirst: "I/we", SubjectSecond: "You", SubjectThird: "She/They",
	StyleInterrogative: "Interrog", StyleNegative: "Negative",
	StyleAffirmative: "Affirmative", StatusPassive: "Passive",
	StatusActive: "Active", POSVerb: "Verb", POSNoun: "Noun",
	POSAdjAdv: "Adj/Adverb",
}

// String returns the paper's name for the feature value.
func (f Feature) String() string {
	if int(f) < len(featureNames) {
		return featureNames[f]
	}
	return "?"
}

// meanOffsets[m] is the Feature index where mean m's features begin; the
// mean's domain size is meanSizes[m].
var (
	meanOffsets = [NumMeans]int{Tense: 0, Subject: 3, Style: 6, Status: 9, PartOfSpeech: 11}
	meanSizes   = [NumMeans]int{Tense: 3, Subject: 3, Style: 3, Status: 2, PartOfSpeech: 3}
)

// MeanOf returns the communication mean a feature belongs to.
func MeanOf(f Feature) Mean {
	for m := NumMeans - 1; m >= 0; m-- {
		if int(f) >= meanOffsets[m] {
			return m
		}
	}
	return Tense
}

// FeaturesOf returns the half-open Feature index range [lo, hi) of mean m's
// distribution table.
func FeaturesOf(m Mean) (lo, hi int) {
	return meanOffsets[m], meanOffsets[m] + meanSizes[m]
}

// Annotation is the distribution-table bundle of a text span: Counts[f] is
// the number of observations of feature f in the span (the DSb tables of
// Sec 5.2 laid side by side), and Words is the number of word tokens.
// The zero value is an empty annotation; annotations of adjacent spans are
// combined with Add, which is what makes bottom-up segment merging cheap.
type Annotation struct {
	Counts [NumFeatures]float64
	Words  int
}

// Add returns the annotation of the concatenation of the two spans.
func (a Annotation) Add(b Annotation) Annotation {
	var out Annotation
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	out.Words = a.Words + b.Words
	return out
}

// AddInto stores the annotation of the concatenation a+b into out without
// copying either operand — the in-place form hot loops use (Add moves three
// ~240-byte values per call). out may alias a or b. The summation order is
// identical to Add's.
func (a *Annotation) AddInto(b, out *Annotation) {
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	out.Words = a.Words + b.Words
}

// SubInto stores a−b into out; the in-place form of Sub (see AddInto).
// out may alias a or b.
func (a *Annotation) SubInto(b, out *Annotation) {
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	out.Words = a.Words - b.Words
}

// Sub returns the annotation of a with b removed. It is the inverse of Add
// and enables O(1) range queries over prefix-sum annotation tables.
func (a Annotation) Sub(b Annotation) Annotation {
	var out Annotation
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	out.Words = a.Words - b.Words
	return out
}

// Total returns the sum of all observations of mean m in the span (the
// "All" normalizer of Eq 1).
func (a Annotation) Total(m Mean) float64 {
	lo, hi := FeaturesOf(m)
	var sum float64
	for i := lo; i < hi; i++ {
		sum += a.Counts[i]
	}
	return sum
}
