// Package textproc provides the low-level text processing substrate used by
// the intention-based segmentation pipeline: word tokenization with byte
// offsets, sentence splitting, HTML cleaning, stemming, and stopword
// filtering.
//
// Forum posts arrive as raw user text (sometimes with embedded HTML). Every
// stage downstream — POS tagging, communication-means annotation,
// segmentation, indexing — consumes the Token and Sentence values produced
// here, so offsets recorded in this package are the coordinate system for
// the whole system (segment borders, annotator offsets, WinDiff windows).
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single word-level text unit with its position in the original
// text. Start and End are byte offsets into the source string such that
// src[Start:End] == Text. Position is the zero-based token index.
type Token struct {
	Text     string
	Start    int
	End      int
	Position int
}

// Lower returns the lower-cased token text.
func (t Token) Lower() string { return strings.ToLower(t.Text) }

// IsWord reports whether the token contains at least one letter or digit
// (i.e., it is not pure punctuation).
func (t Token) IsWord() bool {
	for i := 0; i < len(t.Text); {
		cls, size := classAt(t.Text, i)
		if cls == clsWord {
			return true
		}
		i += size
	}
	return false
}

// The three kinds of rune the tokenizer tells apart. Forum text is almost
// all ASCII, so the class of an ASCII byte comes from a table and only
// what is left goes through utf8 and the unicode tables.
const (
	clsPunct = iota // neither of the below: a token of its own
	clsSpace
	clsWord // letter or digit
)

var asciiClass = func() (class [utf8.RuneSelf]uint8) {
	for c := range class {
		class[c] = runeClass(rune(c))
	}
	return class
}()

func runeClass(r rune) uint8 {
	switch {
	case unicode.IsSpace(r):
		return clsSpace
	case unicode.IsLetter(r) || unicode.IsDigit(r):
		return clsWord
	}
	return clsPunct
}

// classAt returns the class and the byte length of the rune at text[i].
func classAt(text string, i int) (cls uint8, size int) {
	if c := text[i]; c < utf8.RuneSelf {
		return asciiClass[c], 1
	}
	r, size := utf8.DecodeRuneInString(text[i:])
	return runeClass(r), size
}

// tokenize splits text into tokens. Words are maximal runs of letters,
// digits, and internal apostrophes/hyphens (so "didn't" and "e-mail" are
// single tokens); every other non-space rune becomes a single-rune
// punctuation token. Offsets are byte offsets into text.
func tokenize(text string) []Token {
	return appendTokens(make([]Token, 0, tokenEstimate(len(text))), text, 0)
}

// tokenEstimate is the token capacity to start from for n bytes of text:
// forum posts run at 0.19–0.23 tokens per byte.
func tokenEstimate(n int) int { return n/4 + 1 }

// appendTokens tokenizes text, which starts at byte offset base of the
// source the offsets are to refer to, and appends its tokens to dst.
// Position counts from the first token appended.
func appendTokens(dst []Token, text string, base int) []Token {
	first := len(dst)
	n := len(text)
	for i := 0; i < n; {
		cls, size := classAt(text, i)
		if cls == clsSpace {
			i += size
			continue
		}
		start := i
		i += size
		for cls == clsWord && i < n {
			c2, s2 := classAt(text, i)
			if c2 == clsPunct && i+s2 < n && isJoiner(text[i:i+s2]) {
				// Allow internal apostrophe or hyphen when followed by a
				// letter: "don't", "state-of-the-art".
				c2, _ = classAt(text, i+s2)
			}
			if c2 != clsWord {
				break
			}
			i += s2
		}
		dst = append(dst, Token{Text: text[start:i], Start: base + start, End: base + i, Position: len(dst) - first})
	}
	return dst
}

func isJoiner(r string) bool { return r == "'" || r == "-" || r == "’" }
