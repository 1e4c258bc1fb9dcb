package pos

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
)

// The straight-line lexical tagger the lexicon replaced, kept as the
// reference the single-probe tagger is tested against: one word list
// probed after the other, in the order that decides which tag a word on
// several lists gets. It shares the word lists with the tagger and nothing
// else.

func setOf(words []string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

var (
	refPronounFirst     = setOf(pronounFirst)
	refPronounSecond    = setOf(pronounSecond)
	refPronounThird     = setOf(pronounThird)
	refModals           = setOf(modals)
	refAuxPresent       = setOf(auxPresent)
	refAuxPast          = setOf(auxPast)
	refDeterminers      = setOf(determiners)
	refPrepositions     = setOf(prepositions)
	refConjunctions     = setOf(conjunctions)
	refWhWords          = setOf(whWords)
	refCommonAdjectives = setOf(commonAdjectives)
	refCommonAdverbs    = setOf(commonAdverbs)
	refCommonNouns      = setOf(commonNouns)
)

func refLexicalTag(lower string) Tag {
	if lower == "" {
		return Other
	}
	r := rune(lower[0])
	if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
		return Punct
	}
	if unicode.IsDigit(r) {
		return Number
	}

	// Negated contractions first: "didn't" must become a past verb, not be
	// swallowed by a generic rule.
	if strings.HasSuffix(lower, "n't") {
		if refModals[lower] {
			return Modal
		}
		if refAuxPast[lower] {
			return VerbPast
		}
		if refAuxPresent[lower] {
			return VerbPresent
		}
	}

	switch {
	case refPronounFirst[lower]:
		return PronounFirst
	case refPronounSecond[lower]:
		return PronounSecond
	case refPronounThird[lower]:
		return PronounThird
	case refModals[lower]:
		return Modal
	case refWhWords[lower]:
		return WhWord
	case lower == "not":
		return Particle
	case refAuxPast[lower]:
		return VerbPast
	case refAuxPresent[lower]:
		return VerbPresent
	case lower == "be":
		return VerbBase
	case lower == "been", lower == "being":
		return VerbPastPart
	case refDeterminers[lower]:
		return Determiner
	case refConjunctions[lower]:
		return Conjunction
	case refPrepositions[lower]:
		return Preposition
	case refCommonNouns[lower]:
		return Noun
	case refCommonAdverbs[lower]:
		return Adverb
	case refCommonAdjectives[lower]:
		return Adjective
	}

	if _, ok := irregularPast[lower]; ok {
		return VerbPast
	}
	if _, ok := irregularPart[lower]; ok {
		return VerbPastPart
	}
	if baseVerbs[lower] {
		return VerbPresent
	}

	if base, ok := refStripVerbS(lower); ok && baseVerbs[base] {
		return VerbPresent
	}
	if base, ok := refStripVerbED(lower); ok && baseVerbs[base] {
		return VerbPast
	}
	if base, ok := refStripVerbING(lower); ok && baseVerbs[base] {
		return VerbGerund
	}
	return refSuffixTag(lower)
}

func refStripVerbS(w string) (string, bool) {
	switch {
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return w[:len(w)-3] + "y", true
	case strings.HasSuffix(w, "sses"), strings.HasSuffix(w, "ches"),
		strings.HasSuffix(w, "shes"), strings.HasSuffix(w, "xes"),
		strings.HasSuffix(w, "zes"), strings.HasSuffix(w, "oes"):
		if len(w) > 3 {
			return w[:len(w)-2], true
		}
	case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && len(w) > 2:
		return w[:len(w)-1], true
	}
	return "", false
}

func refStripVerbED(w string) (string, bool) {
	if !strings.HasSuffix(w, "ed") || len(w) < 4 {
		return "", false
	}
	stem := w[:len(w)-2]
	if baseVerbs[stem] {
		return stem, true
	}
	if baseVerbs[stem+"e"] {
		return stem + "e", true
	}
	if strings.HasSuffix(stem, "i") && baseVerbs[stem[:len(stem)-1]+"y"] {
		return stem[:len(stem)-1] + "y", true
	}
	if len(stem) >= 2 && stem[len(stem)-1] == stem[len(stem)-2] && baseVerbs[stem[:len(stem)-1]] {
		return stem[:len(stem)-1], true
	}
	return "", false
}

func refStripVerbING(w string) (string, bool) {
	if !strings.HasSuffix(w, "ing") || len(w) < 5 {
		return "", false
	}
	stem := w[:len(w)-3]
	if baseVerbs[stem] {
		return stem, true
	}
	if baseVerbs[stem+"e"] {
		return stem + "e", true
	}
	if len(stem) >= 2 && stem[len(stem)-1] == stem[len(stem)-2] && baseVerbs[stem[:len(stem)-1]] {
		return stem[:len(stem)-1], true
	}
	return "", false
}

func refSuffixTag(lower string) Tag {
	switch {
	case strings.HasSuffix(lower, "ly") && len(lower) > 4:
		return Adverb
	case strings.HasSuffix(lower, "ing") && len(lower) > 5:
		return VerbGerund
	case strings.HasSuffix(lower, "ed") && len(lower) > 4:
		return VerbPast
	case strings.HasSuffix(lower, "tion"), strings.HasSuffix(lower, "sion"),
		strings.HasSuffix(lower, "ment"), strings.HasSuffix(lower, "ness"),
		strings.HasSuffix(lower, "ity"), strings.HasSuffix(lower, "ance"),
		strings.HasSuffix(lower, "ence"), strings.HasSuffix(lower, "ship"),
		strings.HasSuffix(lower, "ism"), strings.HasSuffix(lower, "ware"),
		strings.HasSuffix(lower, "age"):
		return Noun
	case strings.HasSuffix(lower, "ful"), strings.HasSuffix(lower, "ous"),
		strings.HasSuffix(lower, "ive"), strings.HasSuffix(lower, "able"),
		strings.HasSuffix(lower, "ible"), strings.HasSuffix(lower, "less"),
		strings.HasSuffix(lower, "ish"), strings.HasSuffix(lower, "est"):
		return Adjective
	}
	return Noun
}

// sourceKeys is every word of every list the lexicon is built from, plus
// the lists the tagger's helper predicates keep.
func sourceKeys() []string {
	keys := []string{"not", "be", "been", "being", "n't"}
	for _, list := range [][]string{
		pronounFirst, pronounSecond, pronounThird, modals, auxPresent, auxPast,
		beForms, getForms, determiners, prepositions, conjunctions, whWords,
		commonAdjectives, commonAdverbs, commonNouns,
	} {
		keys = append(keys, list...)
	}
	for _, set := range []map[string]bool{baseVerbs} {
		for w := range set {
			keys = append(keys, w)
		}
	}
	for _, table := range []map[string]string{irregularPast, irregularPart} {
		for w, base := range table {
			keys = append(keys, w, base)
		}
	}
	return keys
}

// TestLexiconMatchesProbeChain guards the precedence buildLexicon encodes:
// every word any list knows must get the tag the probe chain gives it, and
// the lexicon must hold nothing else.
func TestLexiconMatchesProbeChain(t *testing.T) {
	known := make(map[string]bool)
	for _, w := range sourceKeys() {
		known[w] = true
		want := refLexicalTag(w)
		if got := lexicalTag(w); got != want {
			t.Errorf("lexicalTag(%q) = %v, the probe chain says %v", w, got, want)
		}
		// ("'ll" and its like sit in the lexicon unreachable: a token that
		// starts with an apostrophe is punctuation before it is looked up.)
		if got, ok := lexicon[w]; ok && got != want && firstByte[w[0]] == Other {
			t.Errorf("lexicon[%q] = %v, the probe chain says %v", w, got, want)
		}
	}
	for w, got := range lexicon {
		if !known[w] {
			t.Errorf("lexicon[%q] = %v is on no source list", w, got)
		}
	}
	for _, w := range whWords {
		if lexicon[w] != WhWord {
			t.Errorf("lexicon[%q] = %v: a list ahead of whWords shadows it", w, lexicon[w])
		}
	}
}

// inflections derives the shapes the morphology and suffix rules look at
// from one word: every inflection the rules undo (and the near misses the
// length guards exist for), and every telling suffix.
func inflections(w string) []string {
	out := []string{w, w + "s", w + "es", w + "ss", w + "d", w + "ed", w + "ing", w + "ly", w + "n't"}
	if n := len(w); n > 0 {
		last := w[n-1:]
		out = append(out, w+last+"ed", w+last+"ing", w[:n-1]+"ed", w[:n-1]+"ing",
			w[:n-1]+"ies", w[:n-1]+"ied", w[:n-1]+"ying")
	}
	for _, suf := range []string{
		"tion", "sion", "ment", "ness", "ity", "ance", "ence", "ship", "ism", "ware", "age",
		"ful", "ous", "ive", "able", "ible", "less", "ish", "est",
	} {
		out = append(out, w+suf, w+suf+"s", w+suf+"ly")
	}
	return out
}

// refFormWords are the word lists the repair pass and the annotator
// compared a token's text with before its forms were bits (pos's repair,
// cm's verbTense, hasPassiveAux and isInterrogative), one list a form;
// FormNegation is refNegation.
var refFormWords = map[Form][]string{
	FormTo:   {"to"},
	FormHave: {"have", "has", "had", "having", "'ve", "haven't", "hasn't", "hadn't"},
	FormBeGet: {"be", "am", "is", "are", "was", "were", "been", "being", "'s", "'re", "'m",
		"isn't", "aren't", "wasn't", "weren't", "ain't", "get", "gets", "got", "gotten", "getting"},
	FormFuture:     {"will", "shall", "'ll", "won't", "shan't", "gonna"},
	FormWh:         whWords,
	FormPastAux:    {"had", "was", "were", "did", "didn't", "wasn't", "weren't", "hadn't"},
	FormPerfectAux: {"have", "has", "'ve", "haven't", "hasn't"},
	FormGoing:      {"going", "gonna"},
	FormInverts: {"do", "does", "did", "can", "could", "would", "will", "should",
		"is", "are", "was", "were", "have", "has", "had", "may", "might"},
	FormClauseBreak: {",", ";"},
}

func refNegation(w string) bool {
	switch w {
	case "not", "no", "never", "none", "nothing", "nobody", "nowhere", "neither",
		"nor", "cannot", "without", "hardly", "barely", "scarcely":
		return true
	}
	return strings.HasSuffix(w, "n't")
}

func refForms(lower string) Form {
	var f Form
	for form, words := range refFormWords {
		for _, w := range words {
			if w == lower {
				f |= form
			}
		}
	}
	if refNegation(lower) {
		f |= FormNegation
	}
	return f
}

// checkLexical holds Lexical to the probe chain and the form lists.
func checkLexical(t *testing.T, lower string) {
	t.Helper()
	got := Lexical(lower)
	if want := refLexicalTag(lower); got.Tag != want {
		t.Errorf("lexicalTag(%q) = %v, the probe chain says %v", lower, got.Tag, want)
	}
	if want := refForms(lower); got.Form != want {
		t.Errorf("Lexical(%q).Form = %#x, the word lists say %#x", lower, got.Form, want)
	}
}

func TestLexicalTagMatchesProbeChain(t *testing.T) {
	for _, w := range sourceKeys() {
		for _, v := range inflections(w) {
			checkLexical(t, v)
		}
	}
	// Short and random words around the rules' length guards, every first
	// byte (punctuation, digits, Latin-1 letters and non-letters), and
	// suffix-only words.
	rng := rand.New(rand.NewSource(16))
	const letters = "abcdefghijklmnopqrstuvwxyz'-"
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+rng.Intn(7))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		for _, v := range inflections(string(b)) {
			checkLexical(t, v)
		}
	}
	for c := 0; c < 256; c++ {
		checkLexical(t, string([]byte{byte(c)}))
		checkLexical(t, string([]byte{byte(c)})+"install")
		checkLexical(t, string([]byte{byte(c)})+"ed")
	}
	for _, v := range inflections("") {
		checkLexical(t, v)
	}
	for _, words := range refFormWords {
		for _, w := range words {
			for _, v := range inflections(w) {
				checkLexical(t, v)
			}
		}
	}
	// Every token of the checked-in fuzz corpus.
	files, err := filepath.Glob("testdata/fuzz/FuzzTagWords/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range strings.Fields(string(data)) {
			checkLexical(t, strings.ToLower(tok))
		}
	}
}
