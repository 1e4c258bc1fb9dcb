package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Sentence is a contiguous span of the source text treated as a single text
// unit by the segmentation layer (Sec 9.1.2.B of the paper: sentences are
// the natural text units for intention segmentation). Start and End are byte
// offsets into the source; NextToken walks the tokens of Text.
type Sentence struct {
	Text  string
	Start int
	End   int
	Index int // zero-based sentence index within the document
}

// EndsWith reports whether the sentence's final non-space rune equals r.
func (s Sentence) EndsWith(r rune) bool {
	text := strings.TrimRightFunc(s.Text, unicode.IsSpace)
	last, _ := utf8.DecodeLastRuneInString(text)
	return last == r
}

// abbreviations that should not terminate a sentence when followed by a
// period. Lower-cased, without the trailing dot.
var abbreviations = map[string]bool{
	"mr": true, "mrs": true, "ms": true, "dr": true, "prof": true,
	"sr": true, "jr": true, "st": true, "vs": true, "etc": true,
	"e.g": true, "i.e": true, "eg": true, "ie": true, "cf": true,
	"fig": true, "figs": true, "no": true, "nos": true, "vol": true,
	"approx": true, "dept": true, "est": true, "min": true, "max": true,
	"inc": true, "ltd": true, "co": true, "corp": true, "u.s": true,
	"a.m": true, "p.m": true,
}

// SplitSentences divides text into sentences. A sentence ends at '.', '!',
// '?' (or a run of them) when the terminator is followed by whitespace and
// the next word starts a new sentence, with guards for common abbreviations,
// decimal numbers ("5.5"), version strings ("MySQL 5.5.3"), and initials.
// Newline pairs (blank lines) always terminate a sentence.
func SplitSentences(text string) []Sentence {
	var buf [16][2]int // a post is rarely longer: the spans stay on the stack
	spans := sentenceSpans(buf[:0], text)
	if len(spans) == 0 {
		return nil
	}
	sentences := make([]Sentence, len(spans))
	for i, sp := range spans {
		sentences[i] = Sentence{Text: text[sp[0]:sp[1]], Start: sp[0], End: sp[1], Index: i}
	}
	return sentences
}

// sentenceByte marks the bytes sentenceSpans acts on.
var sentenceByte = [256]bool{'.': true, '!': true, '?': true, '\n': true}

// sentenceSpans appends the [start, end) byte span of every sentence of
// text, trimmed of surrounding space, to spans. Every byte it acts on is
// ASCII ('.', '!', '?', newline, blank) apart from the two closing quotes,
// and no byte of a multi-byte rune is ASCII, so it walks bytes, not runes.
func sentenceSpans(spans [][2]int, text string) [][2]int {
	start := 0
	n := len(text)
	flush := func(end int) {
		if lead, trimmed := trimSpace(text[start:end]); trimmed != "" {
			spans = append(spans, [2]int{start + lead, start + lead + len(trimmed)})
		}
		start = end
	}
	for i := 0; i < n; {
		if !sentenceByte[text[i]] {
			i++ // most bytes: no terminator, no newline
			continue
		}
		switch c := text[i]; c {
		case '.', '!', '?':
			// Consume the full terminator run (e.g. "?!", "...").
			j := i + 1
			for j < n && (text[j] == '.' || text[j] == '!' || text[j] == '?') {
				j++
			}
			if c == '.' && !isSentencePeriod(text, i, j) {
				i = j
				continue
			}
			// Include trailing closing quotes/parens in the sentence.
			for {
				k := closerLen(text[j:])
				if k == 0 {
					break
				}
				j += k
			}
			flush(j)
			i = j
		case '\n':
			// A blank line (two newlines with only spaces between) ends a sentence.
			j := i + 1
			sawSecond := false
			for j < n {
				c2 := text[j]
				if c2 == '\n' {
					sawSecond = true
				} else if c2 != ' ' && c2 != '\t' && c2 != '\r' {
					break
				}
				j++
			}
			if sawSecond {
				flush(i)
				start = j
			}
			i = j
		}
	}
	if start < n {
		flush(n)
	}
	return spans
}

// closerLen is the byte length of the closing quote or parenthesis s starts
// with, 0 if it starts with none.
func closerLen(s string) int {
	switch {
	case s == "":
		return 0
	case s[0] == '"' || s[0] == '\'' || s[0] == ')':
		return 1
	case strings.HasPrefix(s, "”") || strings.HasPrefix(s, "’"):
		return len("”")
	}
	return 0
}

// trimSpace returns seg without its leading and trailing white space, and
// the offset in seg at which what is left begins.
func trimSpace(seg string) (lead int, trimmed string) {
	for lead < len(seg) && seg[lead] < utf8.RuneSelf && asciiClass[seg[lead]] == clsSpace {
		lead++
	}
	if lead < len(seg) && seg[lead] >= utf8.RuneSelf {
		// The span may open with multi-byte space; locate what remains
		// after trimming the way a search would, which is also right when
		// invalid UTF-8 makes a rune's tail look like the remainder's head.
		trimmed = strings.TrimSpace(seg)
		return strings.Index(seg, trimmed), trimmed
	}
	return lead, strings.TrimSpace(seg[lead:])
}

// isSentencePeriod decides whether the period at text[i] (with terminator run
// ending at j) actually ends a sentence.
func isSentencePeriod(text string, i, j int) bool {
	// A run of periods ("...") is treated as a terminator.
	if j-i > 1 {
		return true
	}
	// Decimal or version number: digit on both sides.
	if i > 0 && j < len(text) {
		prev, _ := utf8.DecodeLastRuneInString(text[:i])
		next, _ := utf8.DecodeRuneInString(text[j:])
		if unicode.IsDigit(prev) && unicode.IsDigit(next) {
			return false
		}
	}
	// Not a terminator unless followed by space+capital/digit or end of text.
	if j >= len(text) {
		return true
	}
	next, _ := utf8.DecodeRuneInString(text[j:])
	if !unicode.IsSpace(next) {
		return false
	}
	// Peek at the next non-space rune; lowercase continuation suggests an
	// abbreviation mid-sentence ("e.g. the disk").
	k := j
	for k < len(text) {
		r2, s2 := utf8.DecodeRuneInString(text[k:])
		if unicode.IsSpace(r2) {
			k += s2
			continue
		}
		break
	}
	// Preceding word an abbreviation?
	word := lastWordBefore(text, i)
	if abbreviations[strings.ToLower(word)] {
		return false
	}
	// Single capital letter before the dot → an initial ("J. Smith").
	if len(word) == 1 && unicode.IsUpper(rune(word[0])) {
		return false
	}
	// A lowercase continuation ("S.M.A.R.T. alert", "e.g. the disk")
	// signals an abbreviation the list does not know.
	if k < len(text) {
		r2, _ := utf8.DecodeRuneInString(text[k:])
		if unicode.IsLower(r2) {
			return false
		}
	}
	return true
}

// lastWordBefore extracts the word immediately preceding byte offset i.
func lastWordBefore(text string, i int) string {
	end := i
	k := i
	for k > 0 {
		r, size := utf8.DecodeLastRuneInString(text[:k])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '.' {
			k -= size
			continue
		}
		break
	}
	return strings.TrimSuffix(text[k:end], ".")
}
