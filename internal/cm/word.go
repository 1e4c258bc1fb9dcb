package cm

import (
	"hash/maphash"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/pos"
	"repro/internal/textproc"
)

// word is what the front end knows of one token text out of context: the
// pos.Lexical answer for its lower-cased text and, for a content word (one
// with a letter or digit that is not a stop word), the Porter stem of its
// lower-cased text. All of it depends on the text alone, so TagSentence
// computes it once per distinct text and afterwards only reads it.
type word struct {
	text string // the token text the record was computed from
	stem string // "" unless a content word
	lex  pos.TaggedToken
}

func newWord(text string) word {
	lower := strings.ToLower(text)
	w := word{text: text, lex: pos.Lexical(lower)}
	if textproc.IsWord(text) && !textproc.IsStopword(lower) {
		w.stem = textproc.Stem(lower)
	}
	return w
}

// The word memo. Forum vocabulary is Zipfian — about a thousand head words
// make up almost every token of every post — so a small table answers
// almost every lookup. It is direct-mapped: a text hashes to one slot, a
// slot holds the last record computed there, readers and writers meet
// through one atomic pointer and nobody waits. A lost race or a collision
// costs one more computation. A record is returned only for the very text
// it was computed from and never changes once stored, so the memo decides
// how long a lookup takes and never what it returns. Its size is fixed:
// wordSlots records of at most wordMaxLen bytes of text and of stem each
// (longer tokens — URLs, pasted hashes — are computed uncached, so hostile
// input cannot park megabytes here). Single ASCII bytes — punctuation,
// "I", "a", digits — are looked up in asciiWords and never hashed.
const (
	wordSlots  = 1 << 14
	wordMaxLen = 32
)

var (
	wordMemo [wordSlots]atomic.Pointer[word]
	wordSeed = maphash.MakeSeed()

	asciiWords = func() (words [utf8.RuneSelf]word) {
		for c := range words {
			words[c] = newWord(string(rune(c)))
		}
		return words
	}()
)

// wordSlot is text's slot in the memo.
func wordSlot(text string) uint64 { return maphash.String(wordSeed, text) % wordSlots }

// lookup returns the record of token text.
func lookup(text string) word {
	if len(text) == 1 && text[0] < utf8.RuneSelf {
		return asciiWords[text[0]]
	}
	if len(text) > wordMaxLen {
		return newWord(text)
	}
	slot := &wordMemo[wordSlot(text)]
	if w := slot.Load(); w != nil && w.text == text {
		return *w
	}
	// The record owns its bytes: text is a substring of a post (of a
	// request body, on /add), which a record sharing its memory would keep
	// alive for as long as the record stays. Lower-casing can lengthen a
	// word ("Ⱥ" is two bytes, "ⱥ" three), so the stem is held to the cap
	// too.
	w := newWord(strings.Clone(text))
	if len(w.stem) <= wordMaxLen {
		slot.Store(&w)
	}
	return w
}

// TagSentence tokenises one sentence and tags its tokens in context: it
// looks each token's record up once (its lexical tag and forms, and its
// stem), then runs pos.Repair. It returns the tags in tags' memory, for
// AnnotateTagged, and terms with the stems of the sentence's content words
// appended: the stop-word-filtered, stemmed terms the matcher indexes.
func TagSentence(tags []pos.TaggedToken, terms []string, sent string) ([]pos.TaggedToken, []string) {
	tags = tags[:0]
	for start, end := textproc.NextToken(sent, 0); start < end; start, end = textproc.NextToken(sent, end) {
		w := lookup(sent[start:end])
		tags = append(tags, w.lex)
		if w.stem != "" {
			terms = append(terms, w.stem)
		}
	}
	pos.Repair(tags)
	return tags, terms
}
