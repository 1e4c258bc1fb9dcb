// Package textproc provides the low-level text processing substrate used by
// the intention-based segmentation pipeline: word tokenization with byte
// offsets, sentence splitting, HTML cleaning, stemming, and stopword
// filtering.
//
// Forum posts arrive as raw user text (sometimes with embedded HTML). Every
// stage downstream — POS tagging, communication-means annotation,
// segmentation, indexing — consumes the token spans and Sentence values
// produced here, so offsets recorded in this package are the coordinate system for
// the whole system (segment borders, annotator offsets, WinDiff windows).
package textproc

import (
	"unicode"
	"unicode/utf8"
)

// IsWord reports whether the token contains at least one letter or digit
// (i.e., it is not pure punctuation).
func IsWord(tok string) bool {
	for i := 0; i < len(tok); {
		cls, size := classAt(tok, i)
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

// NextToken returns the byte span [start, end) of the first token of text
// at or after byte i, or start == end == len(text) when there is none.
// Words are maximal runs of letters, digits, and internal
// apostrophes/hyphens (so "didn't" and "e-mail" are single tokens); every
// other non-space rune is a single-rune punctuation token. A token is
// never empty, so a caller walks a text with
//
//	for start, end := NextToken(text, 0); start < end; start, end = NextToken(text, end) {
func NextToken(text string, i int) (start, end int) {
	n := len(text)
	cls, size := uint8(clsSpace), 0
	for ; i < n; i += size {
		if cls, size = classAt(text, i); cls != clsSpace {
			break
		}
	}
	if i >= n {
		return n, n
	}
	start = i
	i += size
	for cls == clsWord && i < n {
		if c := text[i]; c < utf8.RuneSelf && asciiClass[c] == clsWord {
			i++ // an ASCII letter or digit: most of a word
			continue
		}
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
	return start, i
}

func isJoiner(r string) bool { return r == "'" || r == "-" || r == "’" }
