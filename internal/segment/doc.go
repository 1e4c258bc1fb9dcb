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

// Doc is a document prepared for segmentation: its sentence units, a
// prefix-sum table of their communication-means annotations that answers
// "annotation of sentences [lo,hi)" in constant time, and their stemmed
// content terms. Doc is immutable after construction and safe for
// concurrent use.
type Doc struct {
	Text    string
	Sents   []textproc.Sentence
	prefix  []cm.Annotation // prefix[i] = sum of the annotations of sentences [0,i)
	terms   []string        // stemmed content terms, sentence after sentence
	termEnd []int           // sentence i's terms are terms[termEnd[i]:termEnd[i+1]]
}

// NewDoc prepares raw post text for segmentation: HTML is stripped, the
// text is split into sentence units, and every sentence is annotated.
// cm.TagSentence looks each token up once and hands back the tags that
// cm.AnnotateTagged reads and the sentence's content terms, already
// filtered and stemmed.
func NewDoc(text string) *Doc {
	text = textproc.StripHTML(text)
	sents := textproc.SplitSentences(text)
	d := &Doc{
		Text:    text,
		Sents:   sents,
		prefix:  make([]cm.Annotation, len(sents)+1),
		termEnd: make([]int, len(sents)+1),
	}
	// A sentence's tags and the post's terms are collected on the stack
	// (no post of the benchmark corpus fills either buffer; a longer one
	// spills to the heap) and only the terms are copied out, at their
	// final length.
	var tagBuf [64]pos.TaggedToken
	var termBuf [128]string
	tags, terms := tagBuf[:0], termBuf[:0]
	for i, s := range sents {
		tags, terms = cm.TagSentence(tags, terms, s.Text)
		ann := cm.AnnotateTagged(s, tags)
		d.prefix[i].AddInto(&ann, &d.prefix[i+1])
		d.termEnd[i+1] = len(terms)
	}
	d.terms = make([]string, len(terms))
	copy(d.terms, terms)
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
func (d *Doc) TermCount(lo, hi int) int { return d.termEnd[hi] - d.termEnd[lo] }

// appendTerms appends the content terms of sentence units [lo, hi) to dst
// and returns the extended slice. It lets callers that merge several
// segments size one buffer up front (see TermCount) instead of growing
// through repeated copies.
func (d *Doc) appendTerms(dst []string, lo, hi int) []string {
	return append(dst, d.terms[d.termEnd[lo]:d.termEnd[hi]]...)
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
