package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// Token is one token of a text as the tests see it: its text, its byte
// offsets (text[Start:End] == Text) and its index among the text's tokens.
type Token struct {
	Text     string
	Start    int
	End      int
	Position int
}

// tokenize is every token NextToken finds in text.
func tokenize(text string) []Token {
	var out []Token
	for start, end := NextToken(text, 0); start < end; start, end = NextToken(text, end) {
		out = append(out, Token{Text: text[start:end], Start: start, End: end, Position: len(out)})
	}
	return out
}

// sentenceTokens is the tokens of s with offsets into the text s was split
// from.
func sentenceTokens(s Sentence) []Token {
	toks := tokenize(s.Text)
	for i := range toks {
		toks[i].Start += s.Start
		toks[i].End += s.Start
	}
	return toks
}

func TestTokenizeSimple(t *testing.T) {
	toks := tokenize("I have an HP system.")
	var got []string
	for _, tok := range toks {
		got = append(got, tok.Text)
	}
	want := []string{"I", "have", "an", "HP", "system", "."}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	src := "RAID 0, 320GB drive!"
	for _, tok := range tokenize(src) {
		if src[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: src[%d:%d]=%q, token %q", tok.Start, tok.End, src[tok.Start:tok.End], tok.Text)
		}
	}
}

func TestTokenizeContractions(t *testing.T) {
	cases := map[string][]string{
		"didn't work":                    {"didn't", "work"},
		"it's a state-of-the-art e-mail": {"it's", "a", "state-of-the-art", "e-mail"},
		"end.'":                          {"end", ".", "'"},
		"don't!":                         {"don't", "!"},
	}
	for in, want := range cases {
		var got []string
		for _, tok := range tokenize(in) {
			got = append(got, tok.Text)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tokenize(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	toks := tokenize("a b c d")
	for i, tok := range toks {
		if tok.Position != i {
			t.Errorf("token %d has Position %d", i, tok.Position)
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	toks := tokenize("café naïve — test")
	var words []string
	for _, tok := range toks {
		if IsWord(tok.Text) {
			words = append(words, tok.Text)
		}
	}
	want := []string{"café", "naïve", "test"}
	if !reflect.DeepEqual(words, want) {
		t.Fatalf("words = %v, want %v", words, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if toks := tokenize(""); len(toks) != 0 {
		t.Fatalf("tokenize(\"\") = %v, want empty", toks)
	}
	if toks := tokenize("   \n\t "); len(toks) != 0 {
		t.Fatalf("tokenize(whitespace) = %v, want empty", toks)
	}
}

// Property: every token's offsets index back to its text, tokens are in
// order, and no token is empty.
func TestTokenizeOffsetsProperty(t *testing.T) {
	f := func(s string) bool {
		toks := tokenize(s)
		prevEnd := 0
		for _, tok := range toks {
			if tok.Text == "" {
				return false
			}
			if tok.Start < prevEnd || tok.End <= tok.Start || tok.End > len(s) {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
			prevEnd = tok.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: concatenating tokens plus gaps reconstructs the non-space
// content of the source.
func TestTokenizeCoversNonSpace(t *testing.T) {
	f := func(s string) bool {
		toks := tokenize(s)
		var b strings.Builder
		for _, tok := range toks {
			b.WriteString(tok.Text)
		}
		stripped := strings.Map(func(r rune) rune {
			if unicode.IsSpace(r) {
				return -1
			}
			return r
		}, s)
		return b.String() == stripped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWords(t *testing.T) {
	got := wordsOf("Do you KNOW whether it would perform OK?")
	want := []string{"do", "you", "know", "whether", "it", "would", "perform", "ok"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestContentWordsFiltersStopwords(t *testing.T) {
	got := contentWords("I have an HP system with a RAID controller")
	want := []string{"hp", "system", "raid", "controller"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("contentWords = %v, want %v", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "i", "we", "is", "wasn't"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"printer", "raid", "hotel"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

// contentWords returns the lower-cased, stopword-filtered word tokens of
// text. This is the term stream the full-text indices are built on.
func contentWords(text string) []string {
	words := wordsOf(text)
	out := words[:0]
	for _, w := range words {
		if !stopwordSet[w] {
			out = append(out, w)
		}
	}
	return out
}

// wordsOf returns only the word tokens of text (punctuation removed),
// lower-cased.
func wordsOf(text string) []string {
	toks := tokenize(text)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if IsWord(t.Text) {
			out = append(out, strings.ToLower(t.Text))
		}
	}
	return out
}
