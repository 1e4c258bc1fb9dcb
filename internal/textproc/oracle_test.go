package textproc

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// The straight-line front end this package started with, kept as the
// reference its fast paths are tested against: a tokenizer and a sentence
// splitter that decode every rune and ask the unicode tables, an HTML
// stripper that always rewrites, and a Porter stemmer that allocates per
// rule. checkAgainstReference runs a text through both, stage by stage;
// the fuzz targets, the fixtures below, the checked-in
// fuzz corpora and the generated forum posts (corpus_test.go) all go
// through it. The references share with the package only what this change
// did not touch (isSentencePeriod, the entity and tag-name decoders).

func refTokenize(text string) []Token {
	var tokens []Token
	i := 0
	n := len(text)
	for i < n {
		r, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			start := i
			i += size
			for i < n {
				r2, s2 := utf8.DecodeRuneInString(text[i:])
				if unicode.IsLetter(r2) || unicode.IsDigit(r2) {
					i += s2
					continue
				}
				// Allow internal apostrophe or hyphen when followed by a letter:
				// "don't", "state-of-the-art".
				if (r2 == '\'' || r2 == '’' || r2 == '-') && i+s2 < n {
					r3, _ := utf8.DecodeRuneInString(text[i+s2:])
					if unicode.IsLetter(r3) || unicode.IsDigit(r3) {
						i += s2
						continue
					}
				}
				break
			}
			tokens = append(tokens, Token{Text: text[start:i], Start: start, End: i, Position: len(tokens)})
		default:
			tokens = append(tokens, Token{Text: text[i : i+size], Start: i, End: i + size, Position: len(tokens)})
			i += size
		}
	}
	return tokens
}

func refSplitSentences(text string) []Sentence {
	var sentences []Sentence
	start := 0
	n := len(text)
	i := 0
	flush := func(end int) {
		seg := text[start:end]
		trimmed := strings.TrimSpace(seg)
		if trimmed == "" {
			start = end
			return
		}
		// Recompute offsets of the trimmed span.
		lead := strings.Index(seg, trimmed)
		s := Sentence{
			Text:  trimmed,
			Start: start + lead,
			End:   start + lead + len(trimmed),
			Index: len(sentences),
		}
		sentences = append(sentences, s)
		start = end
	}
	for i < n {
		r, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case r == '.' || r == '!' || r == '?':
			// Consume the full terminator run (e.g. "?!", "...").
			j := i + size
			for j < n {
				r2, s2 := utf8.DecodeRuneInString(text[j:])
				if r2 == '.' || r2 == '!' || r2 == '?' {
					j += s2
					continue
				}
				break
			}
			if r == '.' && !isSentencePeriod(text, i, j) {
				i = j
				continue
			}
			// Include trailing closing quotes/parens in the sentence.
			for j < n {
				r2, s2 := utf8.DecodeRuneInString(text[j:])
				if r2 == '"' || r2 == '\'' || r2 == ')' || r2 == '”' || r2 == '’' {
					j += s2
					continue
				}
				break
			}
			flush(j)
			i = j
		case r == '\n':
			// A blank line (two newlines with only spaces between) ends a sentence.
			j := i + size
			sawSecond := false
			for j < n {
				r2, s2 := utf8.DecodeRuneInString(text[j:])
				if r2 == '\n' {
					sawSecond = true
					j += s2
					continue
				}
				if r2 == ' ' || r2 == '\t' || r2 == '\r' {
					j += s2
					continue
				}
				break
			}
			if sawSecond {
				flush(i)
				start = j
			}
			i = j
		default:
			i += size
		}
	}
	if start < n {
		flush(n)
	}
	return sentences
}

func refStripHTML(raw string) string {
	var b strings.Builder
	b.Grow(len(raw))
	i := 0
	n := len(raw)
	for i < n {
		c := raw[i]
		if c != '<' {
			if c == '&' {
				if ent, adv, ok := decodeEntity(raw[i:]); ok {
					b.WriteString(ent)
					i += adv
					continue
				}
			}
			b.WriteByte(c)
			i++
			continue
		}
		// Find the end of the tag.
		end := strings.IndexByte(raw[i:], '>')
		if end < 0 {
			// Unclosed '<': keep as literal text.
			b.WriteString(raw[i:])
			break
		}
		tag := raw[i+1 : i+end]
		i += end + 1
		name := tagName(tag)
		switch name {
		case "script", "style":
			// Drop everything through the matching close tag. The search
			// must be case-insensitive without lowering the haystack:
			// ToLower changes byte lengths (multi-byte case mappings,
			// invalid bytes becoming U+FFFD), which would corrupt the
			// offset math on hostile input.
			ci := indexCloseTag(raw[i:], name)
			if ci < 0 {
				i = n
				break
			}
			i += ci
			if gt := strings.IndexByte(raw[i:], '>'); gt >= 0 {
				i += gt + 1
			} else {
				i = n
			}
		case "p", "div", "br", "li", "ul", "ol", "tr", "h1", "h2", "h3", "h4", "blockquote", "pre":
			b.WriteByte('\n')
		default:
			// Inline tag: replace with a space so adjacent words do not fuse.
			b.WriteByte(' ')
		}
	}
	return refCollapseSpace(b.String())
}

func refCollapseSpace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	spacePending := false
	newlines := 0
	for _, r := range s {
		switch r {
		case ' ', '\t', '\r':
			spacePending = true
		case '\n':
			newlines++
			spacePending = false
		default:
			if newlines > 0 {
				if newlines >= 2 {
					b.WriteString("\n\n")
				} else {
					b.WriteByte('\n')
				}
				newlines = 0
			} else if spacePending {
				b.WriteByte(' ')
			}
			spacePending = false
			b.WriteRune(r)
		}
	}
	return strings.TrimSpace(b.String())
}

// refStem reduces an English word to its stem using the classic Porter (1980)
// algorithm. Input is expected lower-cased; words shorter than three runes
// are returned unchanged (standard Porter behavior).
func refStem(word string) string {
	if len(word) < 3 {
		return word
	}
	for _, r := range word {
		if r > 127 {
			return word // non-ASCII: leave untouched
		}
	}
	w := []byte(word)
	w = refStep1a(w)
	w = refStep1b(w)
	w = refStep1c(w)
	w = refStep2(w)
	w = refStep3(w)
	w = refStep4(w)
	w = refStep5a(w)
	w = refStep5b(w)
	return string(w)
}

// refIsCons reports whether w[i] acts as a consonant in Porter's definition:
// vowels are a,e,i,o,u, plus y when preceded by a consonant.
func refIsCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !refIsCons(w, i-1)
	}
	return true
}

// refMeasure computes Porter's m: the number of VC sequences in w.
func refMeasure(w []byte) int {
	n := 0
	i := 0
	// Skip initial consonants.
	for i < len(w) && refIsCons(w, i) {
		i++
	}
	for {
		// Skip vowels.
		for i < len(w) && !refIsCons(w, i) {
			i++
		}
		if i >= len(w) {
			return n
		}
		// Skip consonants.
		for i < len(w) && refIsCons(w, i) {
			i++
		}
		n++
		if i >= len(w) {
			return n
		}
	}
}

func refHasVowel(w []byte) bool {
	for i := range w {
		if !refIsCons(w, i) {
			return true
		}
	}
	return false
}

// refEndsDoubleCons reports whether w ends with a doubled consonant.
func refEndsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && refIsCons(w, n-1)
}

// refEndsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x, or y.
func refEndsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !refIsCons(w, n-3) || refIsCons(w, n-2) || !refIsCons(w, n-1) {
		return false
	}
	c := w[n-1]
	return c != 'w' && c != 'x' && c != 'y'
}

func refHasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && string(w[len(w)-len(s):]) == s
}

// refReplaceSuffix replaces suffix s with r when the stem refMeasure condition
// m > minM holds for the stem. It returns the new word and whether a
// replacement occurred.
func refReplaceSuffix(w []byte, s, r string, minM int) ([]byte, bool) {
	if !refHasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if refMeasure(stem) <= minM {
		return w, true // matched but condition failed: stop suffix scanning
	}
	out := make([]byte, 0, len(stem)+len(r))
	out = append(out, stem...)
	out = append(out, r...)
	return out, true
}

func refStep1a(w []byte) []byte {
	switch {
	case refHasSuffix(w, "sses"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ies"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ss"):
		return w
	case refHasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func refStep1b(w []byte) []byte {
	if refHasSuffix(w, "eed") {
		stem := w[:len(w)-3]
		if refMeasure(stem) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem []byte
	switch {
	case refHasSuffix(w, "ed") && refHasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case refHasSuffix(w, "ing") && refHasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case refHasSuffix(stem, "at"), refHasSuffix(stem, "bl"), refHasSuffix(stem, "iz"):
		return append(stem, 'e')
	case refEndsDoubleCons(stem) && !refHasSuffix(stem, "l") && !refHasSuffix(stem, "s") && !refHasSuffix(stem, "z"):
		return stem[:len(stem)-1]
	case refMeasure(stem) == 1 && refEndsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func refStep1c(w []byte) []byte {
	if refHasSuffix(w, "y") && refHasVowel(w[:len(w)-1]) {
		out := make([]byte, len(w))
		copy(out, w)
		out[len(out)-1] = 'i'
		return out
	}
	return w
}

var refStep2Rules = []struct{ s, r string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func refStep2(w []byte) []byte {
	for _, rule := range refStep2Rules {
		if out, ok := refReplaceSuffix(w, rule.s, rule.r, 0); ok {
			return out
		}
	}
	return w
}

var refStep3Rules = []struct{ s, r string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func refStep3(w []byte) []byte {
	for _, rule := range refStep3Rules {
		if out, ok := refReplaceSuffix(w, rule.s, rule.r, 0); ok {
			return out
		}
	}
	return w
}

var refStep4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func refStep4(w []byte) []byte {
	for _, s := range refStep4Suffixes {
		if !refHasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if refMeasure(stem) > 1 {
			return stem
		}
		return w
	}
	// "ion" requires the stem to end in s or t.
	if refHasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if refMeasure(stem) > 1 && (refHasSuffix(stem, "s") || refHasSuffix(stem, "t")) {
			return stem
		}
	}
	return w
}

func refStep5a(w []byte) []byte {
	if !refHasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := refMeasure(stem)
	if m > 1 || (m == 1 && !refEndsCVC(stem)) {
		return stem
	}
	return w
}

func refStep5b(w []byte) []byte {
	if refMeasure(w) > 1 && refEndsDoubleCons(w) && refHasSuffix(w, "ll") {
		return w[:len(w)-1]
	}
	return w
}

func sameTokens(t testing.TB, what string, got, want []Token) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tokens, the reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: token %d = %+v, the reference has %+v", what, i, got[i], want[i])
		}
	}
}

// checkAgainstReference asserts that every stage of the front end gives
// raw what the reference gives it: the cleaned text, the tokens and the
// sentences (of the raw text too, which is where the odd bytes are), and
// the stem of every token, as it stands and lower-cased.
func checkAgainstReference(t testing.TB, raw string) {
	t.Helper()
	clean := StripHTML(raw)
	if want := refStripHTML(raw); clean != want {
		t.Fatalf("StripHTML(%q) = %q, the reference has %q", raw, clean, want)
	}
	for _, text := range []string{raw, clean} {
		tokens := tokenize(text)
		sameTokens(t, fmt.Sprintf("tokenize(%q)", text), tokens, refTokenize(text))
		for _, tok := range tokens {
			if got, want := IsWord(tok.Text), strings.IndexFunc(tok.Text, isLetterOrDigit) >= 0; got != want {
				t.Fatalf("IsWord(%q) = %v", tok.Text, got)
			}
			for _, w := range []string{tok.Text, strings.ToLower(tok.Text)} {
				if got, want := Stem(w), refStem(w); got != want {
					t.Fatalf("Stem(%q) = %q, the reference has %q", w, got, want)
				}
			}
		}
		got, want := SplitSentences(text), refSplitSentences(text)
		if len(got) != len(want) {
			t.Fatalf("SplitSentences(%q): %d sentences, the reference has %d", text, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Text != w.Text || g.Start != w.Start || g.End != w.End || g.Index != w.Index {
				t.Fatalf("SplitSentences(%q): sentence %d = %q [%d,%d) #%d, the reference has %q [%d,%d) #%d",
					text, i, g.Text, g.Start, g.End, g.Index, w.Text, w.Start, w.End, w.Index)
			}
			wantTokens := refTokenize(w.Text)
			for j := range wantTokens {
				wantTokens[j].Start += w.Start
				wantTokens[j].End += w.Start
			}
			sameTokens(t, fmt.Sprintf("SplitSentences(%q): sentence %d", text, i), sentenceTokens(g), wantTokens)
		}
	}
}

func isLetterOrDigit(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// fixtures are texts with what the fast paths must not mishandle: markup
// and entities, white space that needs collapsing and white space that
// does not, multi-byte space, letters, quotes and dashes, apostrophes and
// hyphens in every position, invalid UTF-8, abbreviations and numbers.
var fixtures = []string{
	"",
	" ",
	"plain text, no markup at all",
	"I have an HP system. It didn't boot! Will it ever work? zq1234x zq7x.",
	"<p>My <b>disk</b> fails &amp; clicks.</p><script>var x=1;</script>",
	"<div><ul><li>one<li>two</ul></div> <a href=\"x\">link</a>",
	"unclosed <tag and &#65; &#x41; &bogus; &amp",
	"<STYLE>body{}</STYLE><pre>code &lt;kept&gt;</pre>",
	"two  spaces", "tab\there", "cr\r\nlf", "trailing space ", " leading space",
	"space \nbefore newline", "newline\n after", "one\ntwo\n\nthree\n\n\nfour\n\n\n\nfive",
	"\vvertical\f", "form\ffeed inside", "a \v b",
	"nbsp inside", " nbsp ends ", " em space leads. And inside. ",
	" \x80\x83", "\xe2\x80\x83\x80\x83", "x\xe2\x80", "\x80\xfeinvalid\xc2utf8\xa0",
	"naïve café ’quoted’ state-of-the-art x86-64 — dash",
	"a'b'c--d '' - 'x 'tis rock'n'roll o’clock o’ -x x- x-' x'-y",
	"don't e-mail\tme  at 3.5GB/s — thanks!",
	"“Curly quotes.” ‘Singles.’ (Parens.) \"Straight.\" Next",
	"He said \"stop.\" Then left. 'Why?' she asked.”’ Trailing",
	"Dr. J. Smith et al. arrived at 5 p.m. on Jan. 5th. e.g. the disk, cf. Fig. 2.",
	"I upgraded MySQL 5.5.3 yesterday... it broke?! Really!!! S.M.A.R.T. alert says so.",
	"First paragraph.\n\nSecond one!? \n \t\n Third\n\n\n",
	"...!!!...   \n \t\n. . .",
	"bad\xffbytes. mixed\xc2 in? yes.",
	"UPPER Case WORDS Running QUICKLY; relational conditional hopefulness.",
	"Ünïcödé wörds. Ωmega αlpha. 日本語のテキスト。 ١٢٣ ½ ²",
	strings.Repeat("longword", 20) + "ing and " + strings.Repeat("x", 33) + "ies",
}

// fuzzCorpus returns the strings of every checked-in fuzz corpus file.
func fuzzCorpus(t *testing.T) []string {
	files, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpora: %v", err)
	}
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n")[1:] {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

func TestFrontEndMatchesReference(t *testing.T) {
	for _, text := range append(fuzzCorpus(t), fixtures...) {
		checkAgainstReference(t, text)
	}
}

// TestStemMatchesReference covers the rule tables: every suffix any step
// looks for, on stems of every measure, and random words.
func TestStemMatchesReference(t *testing.T) {
	suffixes := []string{"", "s", "sses", "ies", "ss", "eed", "ed", "ing", "y", "e", "ll", "ion", "sion", "tion"}
	for _, r := range refStep2Rules {
		suffixes = append(suffixes, r.s)
	}
	for _, r := range refStep3Rules {
		suffixes = append(suffixes, r.s)
	}
	suffixes = append(suffixes, refStep4Suffixes...)
	stems := []string{"", "a", "b", "tr", "ee", "at", "bl", "iz", "hop", "hopp", "fall", "fizz", "hiss",
		"fil", "cav", "lov", "by", "say", "syzygy", "yyy", "relat", "oper", "adopt", "commun", "zq12x", "x86"}
	for _, st := range stems {
		for _, a := range suffixes {
			for _, b := range suffixes {
				w := st + a + b
				if got, want := Stem(w), refStem(w); got != want {
					t.Fatalf("Stem(%q) = %q, the reference has %q", w, got, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(16))
	const letters = "aeiouybcdlnrstzg"
	for i := 0; i < 50000; i++ {
		b := make([]byte, rng.Intn(14))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		w := string(b) + suffixes[rng.Intn(len(suffixes))]
		if got, want := Stem(w), refStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, the reference has %q", w, got, want)
		}
	}
}

// FuzzStem: for any input at all, the stemmer returns what the reference
// stemmer returns.
func FuzzStem(f *testing.F) {
	for _, w := range []string{"", "a", "is", "caresses", "ponies", "relational", "hopping", "agreed",
		"sky", "happy", "controll", "zq1234x", "naïve", "\xffing", "ING", "generalizations",
		strings.Repeat("abc", 15) + "ization"} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w string) {
		if got, want := Stem(w), refStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, the reference has %q", w, got, want)
		}
	})
}
