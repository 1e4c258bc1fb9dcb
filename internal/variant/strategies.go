package variant

import (
	"math"

	"repro/internal/segment"
)

// This file holds the border-selection mechanisms of Sec 5.3 beside the
// shipped segment.Greedy, and the trivial per-sentence segmentation. The
// bottom-up strategies start from the finest segmentation (every sentence
// a segment) and merge by deleting borders.

// Tile iteratively removes every border whose score falls below a
// threshold derived from the current score distribution (mean − C·stddev,
// the TextTiling cutoff), until all surviving borders clear it. It is the
// mechanism Hearst's thematic segmentation uses, here driven by
// communication-means scores.
//
// A border is scored on the sentence units either side of it: the paper
// observes that comparing coherence across segments of very different
// lengths misleads border selection, and a one-sentence context keeps
// scores comparable as segments grow. A border's score therefore does not
// depend on which other borders survive, so each is scored once and only
// the threshold moves between rounds.
type Tile struct {
	// Score evaluates borders; Shannon{} when nil.
	Score ScoreFunc
	// C scales the standard deviation in the threshold. 1.1 when zero —
	// calibrated on the synthetic corpora so Tile lands slightly above the
	// human border count, as in Fig 8(a).
	C float64
}

// Name implements segment.Strategy.
func (t Tile) Name() string { return "Tile" }

func (t Tile) score() ScoreFunc {
	if t.Score == nil {
		return Shannon{}
	}
	return t.Score
}

func (t Tile) c() float64 {
	if t.C == 0 {
		return 1.1
	}
	return t.C
}

// Segment implements segment.Strategy.
func (t Tile) Segment(d *segment.Doc) segment.Segmentation {
	n := d.Len()
	if n <= 1 {
		return segment.Segmentation{N: n}
	}
	sf := t.score()
	borders := allBorders(n)
	scores := make([]float64, len(borders))
	for i, b := range borders {
		scores[i] = sf.BorderScore(d, b-1, b, b+1)
	}
	for {
		mean, std := segment.MeanStd(scores)
		threshold := mean - float64(t.c()*std)
		kept := 0
		for i, s := range scores {
			if s >= threshold {
				borders[kept], scores[kept] = borders[i], s
				kept++
			}
		}
		if kept == 0 {
			return segment.Segmentation{N: n}
		}
		if kept == len(borders) {
			return segment.Segmentation{Borders: borders, N: n}
		}
		borders, scores = borders[:kept], scores[:kept]
	}
}

// StepbyStep visits borders left to right; a border is deleted when the
// segment accumulated on its left is less coherent than the document as a
// whole, otherwise it is kept and a new segment starts.
type StepbyStep struct {
	// Score evaluates coherence; Shannon{} when nil.
	Score ScoreFunc
}

// Name implements segment.Strategy.
func (s StepbyStep) Name() string { return "StepbyStep" }

// Segment implements segment.Strategy.
func (s StepbyStep) Segment(d *segment.Doc) segment.Segmentation {
	n := d.Len()
	if n <= 1 {
		return segment.Segmentation{N: n}
	}
	sf := s.Score
	if sf == nil {
		sf = Shannon{}
	}
	docCoh := sf.SegCoherence(d, 0, n)
	var borders []int
	lo := 0
	for b := 1; b < n; b++ {
		if sf.SegCoherence(d, lo, b) < docCoh {
			continue // delete border: left segment not yet coherent enough
		}
		borders = append(borders, b)
		lo = b
	}
	return segment.Segmentation{Borders: borders, N: n}
}

// TopDown recursively splits the document at the best-scoring internal
// border as long as splitting improves on keeping the segment whole. The
// paper discusses this approach and its weakness — comparing coherence
// across segments of very different lengths — which is why the bottom-up
// strategies are preferred; it is included for completeness and ablation.
type TopDown struct {
	// Score evaluates borders; Shannon{} when nil.
	Score ScoreFunc
	// MinGain is the minimum border score improvement over the unsplit
	// segment's coherence required to accept a split. 0.02 when zero.
	MinGain float64
}

// Name implements segment.Strategy.
func (t TopDown) Name() string { return "TopDown" }

// Segment implements segment.Strategy.
func (t TopDown) Segment(d *segment.Doc) segment.Segmentation {
	n := d.Len()
	if n <= 1 {
		return segment.Segmentation{N: n}
	}
	sf := t.Score
	if sf == nil {
		sf = Shannon{}
	}
	gain := t.MinGain
	if gain == 0 {
		gain = 0.02
	}
	var borders []int
	var split func(lo, hi int)
	split = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		best, bestScore := -1, math.Inf(-1)
		for b := lo + 1; b < hi; b++ {
			if s := sf.BorderScore(d, lo, b, hi); s > bestScore {
				best, bestScore = b, s
			}
		}
		if best < 0 || bestScore < sf.SegCoherence(d, lo, hi)+gain {
			return
		}
		borders = append(borders, best)
		split(lo, best)
		split(best, hi)
	}
	split(0, n)
	return segment.NewSegmentation(borders, n)
}

// Sentences is the trivial strategy that makes every sentence its own
// segment. It is the segmentation used by the SentIntent-MR baseline
// (Sec 9.2), which skips border selection entirely.
type Sentences struct{}

// Name implements segment.Strategy.
func (Sentences) Name() string { return "Sentences" }

// Segment implements segment.Strategy.
func (Sentences) Segment(d *segment.Doc) segment.Segmentation {
	n := d.Len()
	borders := make([]int, 0, max(0, n-1))
	for b := 1; b < n; b++ {
		borders = append(borders, b)
	}
	return segment.Segmentation{Borders: borders, N: n}
}

// allBorders returns every internal border position 1..n-1.
func allBorders(n int) []int {
	out := make([]int, 0, n-1)
	for b := 1; b < n; b++ {
		out = append(out, b)
	}
	return out
}
