// Package segment implements the intention-based post segmentation of
// Sec 5 of the paper as the pipeline ships it. A document (Doc) is a
// sequence of sentence text units with their communication-means
// annotations; a segmentation is a set of borders between them; a
// Strategy selects the borders. Greedy, with one pass per communication
// mean and a vote (Sec 5.3), is the strategy every build and every added
// post runs. The mechanisms the paper compares it with — Tile, StepbyStep,
// a top-down splitter, the per-sentence segmentation, Hearst's TextTiling
// and the Fig 9 score functions — are in internal/variant, beside the
// experiments that select them.
package segment

import (
	"sort"

	"repro/internal/cm"
	"repro/internal/pos"
	"repro/internal/textproc"
)

// Doc is a document prepared for segmentation: its sentence units, their
// communication-means annotations, and a prefix-sum table that answers
// "annotation of sentences [lo,hi)" in constant time. Doc is immutable
// after construction and safe for concurrent use.
type Doc struct {
	Text   string
	Sents  []textproc.Sentence
	Anns   []cm.Annotation
	prefix []cm.Annotation // prefix[i] = sum of Anns[0:i]
	terms  [][]string      // stemmed content terms per sentence
}

// NewDoc prepares raw post text for segmentation: HTML is stripped, the
// text is split into sentence units, and every sentence is annotated.
func NewDoc(text string) *Doc {
	clean := textproc.StripHTML(text)
	return newDocFromSentences(clean, textproc.SplitSentences(clean))
}

// newDocFromSentences builds a Doc from pre-split sentences. The text must
// be the string the sentence offsets refer to.
//
// Each sentence's tokens are lower-cased and tagged once (cm.TagSentence);
// the annotation reads the tags and the content terms are the same
// lower-cased words, stop words dropped, stemmed.
func newDocFromSentences(text string, sents []textproc.Sentence) *Doc {
	d := &Doc{
		Text:   text,
		Sents:  sents,
		Anns:   make([]cm.Annotation, len(sents)),
		prefix: make([]cm.Annotation, len(sents)+1),
		terms:  make([][]string, len(sents)),
	}
	total, longest := 0, 0
	for _, s := range sents {
		total += len(s.Tokens)
		longest = max(longest, len(s.Tokens))
	}
	// One array for the terms of every sentence; it cannot grow past the
	// token count, so the per-sentence slices of it stay valid.
	terms := make([]string, 0, total)
	tagged := make([]pos.TaggedToken, 0, longest)
	for i, s := range sents {
		tagged = cm.TagSentence(tagged, s)
		d.Anns[i] = cm.AnnotateTagged(s, tagged)
		d.prefix[i].AddInto(&d.Anns[i], &d.prefix[i+1])
		first := len(terms)
		for j, t := range s.Tokens {
			if w := tagged[j].Lower; t.IsWord() && !textproc.IsStopword(w) {
				terms = append(terms, textproc.Stem(w))
			}
		}
		d.terms[i] = terms[first:len(terms):len(terms)]
	}
	return d
}

// Len returns the number of sentence units.
func (d *Doc) Len() int { return len(d.Sents) }

// Range returns the merged annotation of sentence units [lo, hi).
func (d *Doc) Range(lo, hi int) cm.Annotation {
	return d.prefix[hi].Sub(d.prefix[lo])
}

// rangeInto stores the merged annotation of sentence units [lo, hi) into
// out — the copy-free form of Range the border-scoring loops use (Range
// moves three ~240-byte Annotation values per call).
func (d *Doc) rangeInto(out *cm.Annotation, lo, hi int) {
	d.prefix[hi].SubInto(&d.prefix[lo], out)
}

// Terms returns the stemmed, stopword-filtered content terms of sentence
// units [lo, hi) in a freshly allocated slice of exact capacity.
func (d *Doc) Terms(lo, hi int) []string {
	return d.appendTerms(make([]string, 0, d.TermCount(lo, hi)), lo, hi)
}

// TermCount returns the number of content terms in sentence units
// [lo, hi) — the capacity Terms/appendTerms will fill — without
// materializing them.
func (d *Doc) TermCount(lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		n += len(d.terms[i])
	}
	return n
}

// appendTerms appends the content terms of sentence units [lo, hi) to dst
// and returns the extended slice. It lets callers that merge several
// segments size one buffer up front (see TermCount) instead of growing
// through repeated copies.
func (d *Doc) appendTerms(dst []string, lo, hi int) []string {
	for i := lo; i < hi; i++ {
		dst = append(dst, d.terms[i]...)
	}
	return dst
}

// Segmentation is a division of a Doc into consecutive segments
// (Definition 1). Borders holds the sentence indices at which new segments
// begin, strictly increasing within (0, N); N is the number of sentence
// units. The zero Borders slice is the undivided document.
type Segmentation struct {
	Borders []int
	N       int
}

// NewSegmentation normalizes a border set: out-of-range and duplicate
// positions are dropped and the rest sorted.
func NewSegmentation(borders []int, n int) Segmentation {
	seen := make(map[int]bool, len(borders))
	out := make([]int, 0, len(borders))
	for _, b := range borders {
		if b > 0 && b < n && !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return Segmentation{Borders: out, N: n}
}

// NumSegments returns the cardinality |S^d| of the segmentation.
func (s Segmentation) NumSegments() int {
	if s.N == 0 {
		return 0
	}
	return len(s.Borders) + 1
}

// Segments returns the half-open sentence ranges [lo, hi) of each segment.
func (s Segmentation) Segments() [][2]int {
	if s.N == 0 {
		return nil
	}
	out := make([][2]int, 0, len(s.Borders)+1)
	lo := 0
	for _, b := range s.Borders {
		out = append(out, [2]int{lo, b})
		lo = b
	}
	return append(out, [2]int{lo, s.N})
}

// CharBorders translates the sentence-index borders into byte offsets in
// the document text (the start offset of the first sentence of each new
// segment). These offsets are what the human-agreement and WinDiff metrics
// operate on.
func (s Segmentation) CharBorders(sents []textproc.Sentence) []int {
	out := make([]int, len(s.Borders))
	for i, b := range s.Borders {
		out[i] = sents[b].Start
	}
	return out
}

// Strategy selects the borders of an intention-based segmentation.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Segment divides the document.
	Segment(d *Doc) Segmentation
}
