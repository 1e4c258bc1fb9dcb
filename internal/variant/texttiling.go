package variant

import "repro/internal/segment"

// TextTiling is Hearst's (1997) thematic segmentation algorithm: lexical
// cohesion between fixed-size blocks of text on either side of each
// candidate gap, valley depth scoring, and a mean − stddev/2 cutoff. It is
// the term-based baseline of Sec 9.1.2.A and the segmenter behind the
// Content-MR method of Sec 9.2.3 — topical where the paper's method is
// intentional.
type TextTiling struct {
	// BlockSize is the number of sentence units per comparison block.
	// 2 when zero (forum posts are short; Hearst's token-based w≈20 words
	// corresponds to roughly two sentences).
	BlockSize int
	// C scales the standard deviation in the cutoff mean − C·stddev.
	// 0.5 when zero (Hearst's setting).
	C float64
}

// Name implements Strategy.
func (t TextTiling) Name() string { return "TextTiling" }

func (t TextTiling) blockSize() int {
	if t.BlockSize <= 0 {
		return 2
	}
	return t.BlockSize
}

func (t TextTiling) c() float64 {
	if t.C == 0 {
		return 0.5
	}
	return t.C
}

// Segment implements Strategy.
func (t TextTiling) Segment(d *segment.Doc) segment.Segmentation {
	n := d.Len()
	if n <= 1 {
		return segment.Segmentation{N: n}
	}
	w := t.blockSize()
	ids := termIDs(d)

	// Gap similarity: cosine similarity between the blocks left and right of
	// each gap g (between sentences g-1 and g).
	sims := make([]float64, 0, n-1)
	for g := 1; g < n; g++ {
		lo := max(0, g-w)
		hi := min(n, g+w)
		sims = append(sims, cosineSim(termVector(d, ids, lo, g), termVector(d, ids, g, hi)))
	}

	// Depth score of each gap: how far the similarity valley sits below the
	// nearest peaks on both sides.
	depths := make([]float64, len(sims))
	for i := range sims {
		left := sims[i]
		for j := i - 1; j >= 0 && sims[j] >= left; j-- {
			left = sims[j]
		}
		right := sims[i]
		for j := i + 1; j < len(sims) && sims[j] >= right; j++ {
			right = sims[j]
		}
		depths[i] = (left - sims[i]) + (right - sims[i])
	}

	mean, std := segment.MeanStd(depths)
	cutoff := mean - float64(t.c()*std)
	var borders []int
	for i, depth := range depths {
		if depth > cutoff && depth > 0 {
			borders = append(borders, i+1)
		}
	}
	return segment.Segmentation{Borders: borders, N: n}
}

// termIDs numbers the Doc's terms in order of first appearance: the
// coordinates of its TF vectors.
func termIDs(d *segment.Doc) map[string]int {
	ids := make(map[string]int)
	for _, t := range d.Terms(0, d.Len()) {
		if _, ok := ids[t]; !ok {
			ids[t] = len(ids)
		}
	}
	return ids
}

// termVector is the TF vector of units [lo,hi) over ids.
func termVector(d *segment.Doc, ids map[string]int, lo, hi int) []float64 {
	v := make([]float64, len(ids))
	for _, t := range d.Terms(lo, hi) {
		v[ids[t]]++
	}
	return v
}
