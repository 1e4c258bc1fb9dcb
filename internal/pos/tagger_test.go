package pos

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/textproc"
)

// taggedWord is one token of a test sentence with its tag in context.
type taggedWord struct {
	Text  string
	Lower string
	Tag   Tag
}

// TagWords tags the token strings of one sentence the way the front end
// does: Lexical for every lower-cased token, then Repair.
func TagWords(tokens []string) []taggedWord {
	tt := make([]TaggedToken, len(tokens))
	for i, tok := range tokens {
		tt[i] = Lexical(strings.ToLower(tok))
	}
	Repair(tt)
	out := make([]taggedWord, len(tokens))
	for i, tok := range tokens {
		out[i] = taggedWord{Text: tok, Lower: strings.ToLower(tok), Tag: tt[i].Tag}
	}
	return out
}

// tagOf tags the sentence and returns the tag of the token at index i.
func tagOf(t *testing.T, sentence string, i int) Tag {
	t.Helper()
	tt := tagsOf(sentence)
	if i >= len(tt) {
		t.Fatalf("sentence %q has only %d tokens", sentence, len(tt))
	}
	return tt[i].Tag
}

func tagsOf(sentence string) []taggedWord { return TagWords(tokenTexts(sentence)) }

// tokenTexts is every token of text, punctuation included, as the
// sentence splitter cuts them.
func tokenTexts(text string) []string {
	var words []string
	for _, s := range textproc.SplitSentences(text) {
		for start, end := textproc.NextToken(s.Text, 0); start < end; start, end = textproc.NextToken(s.Text, end) {
			words = append(words, s.Text[start:end])
		}
	}
	return words
}

func findTag(tt []taggedWord, word string) Tag {
	for _, x := range tt {
		if x.Lower == word {
			return x.Tag
		}
	}
	return Other
}

func TestPronouns(t *testing.T) {
	tt := tagsOf("I gave you her laptop and we thanked them")
	cases := map[string]Tag{
		"i": PronounFirst, "you": PronounSecond, "her": PronounThird,
		"we": PronounFirst, "them": PronounThird,
	}
	for w, want := range cases {
		if got := findTag(tt, w); got != want {
			t.Errorf("%q tagged %v, want %v", w, got, want)
		}
	}
}

func TestModalAndBaseForm(t *testing.T) {
	tt := tagsOf("I would like to install Hadoop")
	if got := findTag(tt, "would"); got != Modal {
		t.Errorf("would tagged %v, want Modal", got)
	}
	if got := findTag(tt, "like"); got != VerbBase {
		t.Errorf("like after modal tagged %v, want VerbBase", got)
	}
	if got := findTag(tt, "install"); got != VerbBase {
		t.Errorf("install after to tagged %v, want VerbBase", got)
	}
	if got := findTag(tt, "to"); got != Particle {
		t.Errorf("infinitival to tagged %v, want Particle", got)
	}
}

func TestPastTense(t *testing.T) {
	tt := tagsOf("My boss gave me a computer and it stopped yesterday")
	if got := findTag(tt, "gave"); got != VerbPast {
		t.Errorf("gave tagged %v, want VerbPast", got)
	}
	if got := findTag(tt, "stopped"); got != VerbPast {
		t.Errorf("stopped tagged %v, want VerbPast", got)
	}
}

func TestPerfectParticiple(t *testing.T) {
	tt := tagsOf("Friends have downloaded the Cloudera distribution")
	if got := findTag(tt, "downloaded"); got != VerbPastPart {
		t.Errorf("downloaded after have tagged %v, want VerbPastPart", got)
	}
	if got := findTag(tt, "have"); got != VerbPresent {
		t.Errorf("have tagged %v, want VerbPresent", got)
	}
}

func TestPassiveParticiple(t *testing.T) {
	tt := tagsOf("Linux was installed by the technician")
	if got := findTag(tt, "installed"); got != VerbPastPart {
		t.Errorf("installed after was tagged %v, want VerbPastPart", got)
	}
	tt = tagsOf("The driver was not updated")
	if got := findTag(tt, "updated"); got != VerbPastPart {
		t.Errorf("updated after 'was not' tagged %v, want VerbPastPart", got)
	}
}

func TestNegatedContractions(t *testing.T) {
	tt := tagsOf("it didn't work and it doesn't boot and I won't try")
	if got := findTag(tt, "didn't"); got != VerbPast {
		t.Errorf("didn't tagged %v, want VerbPast", got)
	}
	if got := findTag(tt, "doesn't"); got != VerbPresent {
		t.Errorf("doesn't tagged %v, want VerbPresent", got)
	}
	if got := findTag(tt, "won't"); got != Modal {
		t.Errorf("won't tagged %v, want Modal", got)
	}
}

func TestNounAfterDeterminer(t *testing.T) {
	tt := tagsOf("the work on a call")
	if got := findTag(tt, "work"); got != Noun {
		t.Errorf("'the work' tagged %v, want Noun", got)
	}
	if got := findTag(tt, "call"); got != Noun {
		t.Errorf("'a call' tagged %v, want Noun", got)
	}
}

func TestGerund(t *testing.T) {
	tt := tagsOf("I am installing the update")
	if got := findTag(tt, "installing"); got != VerbGerund {
		t.Errorf("installing tagged %v, want VerbGerund", got)
	}
}

func TestThirdPersonS(t *testing.T) {
	tt := tagsOf("it blinks and she tries again")
	if got := findTag(tt, "blinks"); got != VerbPresent {
		t.Errorf("blinks tagged %v, want VerbPresent", got)
	}
	if got := findTag(tt, "tries"); got != VerbPresent {
		t.Errorf("tries tagged %v, want VerbPresent", got)
	}
}

func TestSuffixHeuristics(t *testing.T) {
	tt := tagsOf("unfortunately the blazotronic frobnication is wonderful")
	if got := findTag(tt, "unfortunately"); got != Adverb {
		t.Errorf("-ly word tagged %v, want Adverb", got)
	}
	if got := findTag(tt, "frobnication"); got != Noun {
		t.Errorf("-tion word tagged %v, want Noun", got)
	}
	if got := findTag(tt, "wonderful"); got != Adjective {
		t.Errorf("-ful word tagged %v, want Adjective", got)
	}
}

func TestNumbersAndPunct(t *testing.T) {
	tt := tagsOf("a 320GB drive, 4 disks!")
	if got := findTag(tt, "320gb"); got != Number {
		t.Errorf("320GB tagged %v, want Number", got)
	}
	if got := findTag(tt, "4"); got != Number {
		t.Errorf("4 tagged %v, want Number", got)
	}
	if got := tagOf(t, "x ,", 1); got != Punct {
		t.Errorf("comma tagged %v, want Punct", got)
	}
}

func TestWhWords(t *testing.T) {
	tt := tagsOf("why does it stop and how can I fix it")
	if got := findTag(tt, "why"); got != WhWord {
		t.Errorf("why tagged %v, want WhWord", got)
	}
	if got := findTag(tt, "how"); got != WhWord {
		t.Errorf("how tagged %v, want WhWord", got)
	}
}

func TestIrregularLookups(t *testing.T) {
	if base, ok := isIrregularPast("went"); !ok || base != "go" {
		t.Errorf("isIrregularPast(went) = %q,%v", base, ok)
	}
	if base, ok := isIrregularParticiple("written"); !ok || base != "write" {
		t.Errorf("isIrregularParticiple(written) = %q,%v", base, ok)
	}
	if _, ok := isIrregularPast("xyzzy"); ok {
		t.Error("isIrregularPast(xyzzy) should be false")
	}
}

// hasForm reports whether Lexical gives the lower-cased word w the form f.
func hasForm(w string, f Form) bool { return Lexical(w).Form&f != 0 }

func TestHelperPredicates(t *testing.T) {
	if !hasForm("not", FormNegation) || !hasForm("didn't", FormNegation) || !hasForm("never", FormNegation) {
		t.Error("FormNegation misses obvious negators")
	}
	if hasForm("now", FormNegation) {
		t.Error("now has FormNegation")
	}
	if !hasForm("was", FormBeGet) || !hasForm("is", FormBeGet) || hasForm("have", FormBeGet) {
		t.Error("FormBeGet wrong")
	}
	if !hasForm("will", FormFuture) || !hasForm("'ll", FormFuture) || hasForm("would", FormFuture) {
		t.Error("FormFuture wrong")
	}
	if !hasForm("what", FormWh) || hasForm("the", FormWh) {
		t.Error("FormWh wrong")
	}
}

func TestTagString(t *testing.T) {
	if Noun.String() != "NOUN" || VerbPast.String() != "VBD" {
		t.Error("Tag.String mismatch")
	}
	if Tag(200).String() != "?" {
		t.Error("out-of-range Tag.String should be ?")
	}
}

func TestIsVerbIsPronoun(t *testing.T) {
	for _, tag := range []Tag{VerbBase, VerbPresent, VerbPast, VerbGerund, VerbPastPart} {
		if !tag.IsVerb() {
			t.Errorf("%v.IsVerb() = false", tag)
		}
	}
	if Modal.IsVerb() || Noun.IsVerb() {
		t.Error("Modal/Noun should not be verbs")
	}
	if !PronounFirst.IsPronoun() || !PronounThird.IsPronoun() || Noun.IsPronoun() {
		t.Error("IsPronoun wrong")
	}
}

// Property: Tag never panics, returns one TaggedToken per input token, and
// preserves the input text.
func TestTagTotalProperty(t *testing.T) {
	f := func(words []string) bool {
		tt := TagWords(words)
		if len(tt) != len(words) {
			return false
		}
		for i := range tt {
			if tt[i].Text != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperDocASignals(t *testing.T) {
	// The motivating Doc A mixes present-tense context, a modal desire, an
	// interrogative, and a past-tense report. Spot-check key signals.
	tt := tagsOf("I have an HP system with a RAID 0 controller")
	if got := findTag(tt, "have"); got != VerbPresent {
		t.Errorf("have tagged %v, want VerbPresent", got)
	}
	tt = tagsOf("It stopped since the web site was suggesting to have 1TB disks")
	if got := findTag(tt, "stopped"); got != VerbPast {
		t.Errorf("stopped tagged %v, want VerbPast", got)
	}
	if got := findTag(tt, "suggesting"); got != VerbGerund {
		t.Errorf("suggesting tagged %v, want VerbGerund", got)
	}
}

func BenchmarkTag(b *testing.B) {
	words := tokenTexts("Friends have downloaded the Cloudera distribution but it didn't work. It stopped since the web site was suggesting to have 1TB disks.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TagWords(words)
	}
}

// isIrregularPast reports whether w (lower-cased) is an irregular
// simple-past verb form, returning its base form.
func isIrregularPast(w string) (base string, ok bool) {
	base, ok = irregularPast[w]
	return base, ok
}

// isIrregularParticiple reports whether w (lower-cased) is an irregular past
// participle, returning its base form.
func isIrregularParticiple(w string) (base string, ok bool) {
	base, ok = irregularPart[w]
	return base, ok
}
