package segment

import (
	"math"

	"repro/internal/cm"
)

// This file implements the border-selection mechanisms of Sec 5.3. All
// bottom-up strategies start from the finest segmentation (every sentence a
// segment) and merge by deleting borders.

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

// Name implements Strategy.
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

// Segment implements Strategy.
func (t Tile) Segment(d *Doc) Segmentation {
	n := d.Len()
	if n <= 1 {
		return Segmentation{N: n}
	}
	sf := t.score()
	borders := allBorders(n)
	scores := make([]float64, len(borders))
	for i, b := range borders {
		scores[i] = sf.BorderScore(d, b-1, b, b+1)
	}
	for {
		mean, std := meanStd(scores)
		threshold := mean - t.c()*std
		kept := 0
		for i, s := range scores {
			if s >= threshold {
				borders[kept], scores[kept] = borders[i], s
				kept++
			}
		}
		if kept == 0 {
			return Segmentation{N: n}
		}
		if kept == len(borders) {
			return Segmentation{Borders: borders, N: n}
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

// Name implements Strategy.
func (s StepbyStep) Name() string { return "StepbyStep" }

// Segment implements Strategy.
func (s StepbyStep) Segment(d *Doc) Segmentation {
	n := d.Len()
	if n <= 1 {
		return Segmentation{N: n}
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
	return Segmentation{Borders: borders, N: n}
}

// Greedy removes one border per pass — the lowest-scoring one below a
// threshold — until none qualifies. To avoid being misled by a single
// communication mean, the paper's full mechanism runs one greedy pass per
// CM, marks the borders each pass would delete, and actually deletes those
// marked by a majority of the CMs. That voting variant is the default; set
// Plain to run a single pass on the combined score instead.
//
// Eq 4 averages two coherences with the border depth, so in a perfectly
// homogeneous document every border scores the same high value with zero
// depth and zero variance; a purely distribution-relative threshold would
// then keep them all. A border must therefore also exhibit at least
// MinDepth of Eq 3 depth to survive.
//
// As in Tile, a border is scored on the sentence units either side of it,
// so its (score, depth) is the same whichever borders are gone, and the
// acceptance threshold is frozen over the initial scores: the greedy loop
// ends with exactly the borders that pass. Each border is scored once, the
// five voting passes share its three annotations, and a pass is a filter.
type Greedy struct {
	// Plain disables per-CM voting and uses the combined Shannon score.
	Plain bool
	// C scales the stddev in the threshold mean + C·stddev (over the
	// initial score distribution) that a border's score must stay above to
	// survive. -0.25 when zero (slightly below the mean).
	C float64
	// MinDepth is the minimum border depth (Eq 3) a border needs to
	// survive, and the signal threshold below which a communication mean
	// abstains from the vote. 0.06 when zero; set negative to disable.
	MinDepth float64
	// Quorum is how many of the per-CM greedy passes must mark a border
	// for it to be removed (voting mode only). 4 when 0 — a border
	// survives if at least two communication means defend it.
	Quorum int
}

// Name implements Strategy.
func (g Greedy) Name() string { return "Greedy" }

func (g Greedy) c() float64 {
	if g.C == 0 {
		return -0.25
	}
	return g.C
}

func (g Greedy) quorum() int {
	if g.Quorum <= 0 {
		return 4
	}
	return g.Quorum
}

func (g Greedy) minDepth() float64 {
	if g.MinDepth == 0 {
		return 0.06
	}
	if g.MinDepth < 0 {
		return 0
	}
	return g.MinDepth
}

// threshold is the acceptance threshold mean + C·stddev, frozen over one
// pass's scores in border order.
func (g Greedy) threshold(scores []float64) float64 {
	mean, std := meanStd(scores)
	return mean + g.c()*std
}

// Segment implements Strategy.
func (g Greedy) Segment(d *Doc) Segmentation {
	n := d.Len()
	if n <= 1 {
		return Segmentation{N: n}
	}
	nb, minDepth := n-1, g.minDepth()
	if g.Plain {
		cols := make([]float64, 2*nb)
		scores, depths := cols[:nb], cols[nb:]
		for i := range scores {
			scores[i], depths[i] = shannonScoreDepth(d, i, i+1, i+2)
		}
		threshold := g.threshold(scores)
		borders := make([]int, 0, nb)
		for i, s := range scores {
			if s >= threshold && depths[i] >= minDepth {
				borders = append(borders, i+1)
			}
		}
		return Segmentation{Borders: borders, N: n}
	}
	// Voting: one pass per communication mean over the same three
	// annotations a border. A mean with no local depth signal at a border
	// (its distribution simply does not change there) abstains rather than
	// voting for removal — otherwise a border carried by a single strong
	// mean (e.g. a pure tense shift) would always be outvoted by the
	// indifferent means. Among the means that do see a shift, the border is
	// kept when the defenders are not outnumbered; a border no mean defends
	// is removed (and additionally a border marked by Quorum means is
	// removed regardless).
	cols := make([]float64, 2*int(cm.NumMeans)*nb) // per mean: nb scores, then nb depths
	var left, right, merged cm.Annotation
	for i := 0; i < nb; i++ {
		d.rangeInto(&left, i, i+1)
		d.rangeInto(&right, i+1, i+2)
		left.AddInto(&right, &merged)
		for m := cm.Mean(0); m < cm.NumMeans; m++ {
			cl := cm.ShannonCoherenceOfMean(&left, m)
			cr := cm.ShannonCoherenceOfMean(&right, m)
			depth := cm.Depth(cl, cr, cm.ShannonCoherenceOfMean(&merged, m))
			col := cols[2*int(m)*nb:]
			col[i], col[nb+i] = cm.BorderScore(cl, cr, depth), depth
		}
	}
	tally := make([]int, 2*nb)
	defends, marks := tally[:nb], tally[nb:]
	for m := 0; m < int(cm.NumMeans); m++ {
		scores, depths := cols[2*m*nb:(2*m+1)*nb], cols[(2*m+1)*nb:(2*m+2)*nb]
		threshold := g.threshold(scores)
		for i, s := range scores {
			switch {
			case depths[i] < minDepth:
				// abstain: this mean sees no shift at the border
			case s >= threshold:
				defends[i]++
			default:
				marks[i]++
			}
		}
	}
	quorum := g.quorum()
	var borders []int // nil when none survives
	for i, def := range defends {
		if def > 0 && marks[i] < quorum && marks[i] <= def {
			if borders == nil {
				borders = make([]int, 0, nb)
			}
			borders = append(borders, i+1)
		}
	}
	return Segmentation{Borders: borders, N: n}
}

// shannonScoreDepth computes the Eq 4 border score together with the Eq 3
// depth under Shannon diversity, through the copy-free annotation path.
func shannonScoreDepth(d *Doc, lo, b, hi int) (score, depth float64) {
	var left, right cm.Annotation
	d.rangeInto(&left, lo, b)
	d.rangeInto(&right, b, hi)
	return cm.ShannonScoreBorder(&left, &right)
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

// Name implements Strategy.
func (t TopDown) Name() string { return "TopDown" }

// Segment implements Strategy.
func (t TopDown) Segment(d *Doc) Segmentation {
	n := d.Len()
	if n <= 1 {
		return Segmentation{N: n}
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
	return NewSegmentation(borders, n)
}

// allBorders returns every internal border position 1..n-1.
func allBorders(n int) []int {
	out := make([]int, 0, n-1)
	for b := 1; b < n; b++ {
		out = append(out, b)
	}
	return out
}

// meanStd returns the mean and population standard deviation of xs.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
