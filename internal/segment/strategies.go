package segment

import (
	"math"

	"repro/internal/cm"
)

// This file implements the border selection of Sec 5.3 that the pipeline
// ships: Greedy with per-CM voting. The other mechanisms the paper
// compares it with live in internal/variant.

// Greedy's thresholds. A border survives when its score stays above
// mean + greedyC·stddev of the initial score distribution (slightly below
// the mean) and it has at least greedyMinDepth of Eq 3 depth; greedyMinDepth
// is also the signal below which a communication mean abstains from the
// vote, and a border greedyQuorum of the per-CM passes mark is removed —
// it survives if at least two communication means defend it.
const (
	greedyC        = -0.25
	greedyMinDepth = 0.06
	greedyQuorum   = 4
)

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
// greedyMinDepth of Eq 3 depth to survive.
//
// A border is scored on the sentence units either side of it, so its
// (score, depth) is the same whichever borders are gone, and the
// acceptance threshold is frozen over the initial scores: the greedy loop
// ends with exactly the borders that pass. Each border is scored once, the
// five voting passes share its three annotations, and a pass is a filter.
type Greedy struct {
	// Plain disables per-CM voting and uses the combined Shannon score.
	Plain bool
}

// Name implements Strategy.
func (g Greedy) Name() string { return "Greedy" }

// greedyThreshold is the acceptance threshold mean + greedyC·stddev,
// frozen over one pass's scores in border order.
func greedyThreshold(scores []float64) float64 {
	mean, std := MeanStd(scores)
	return mean + float64(greedyC*std)
}

// Segment implements Strategy.
func (g Greedy) Segment(d *Doc) Segmentation {
	n := d.Len()
	if n <= 1 {
		return Segmentation{N: n}
	}
	nb := n - 1
	if g.Plain {
		cols := make([]float64, 2*nb)
		scores, depths := cols[:nb], cols[nb:]
		for i := range scores {
			scores[i], depths[i] = shannonScoreDepth(d, i, i+1, i+2)
		}
		threshold := greedyThreshold(scores)
		borders := make([]int, 0, nb)
		for i, s := range scores {
			if s >= threshold && depths[i] >= greedyMinDepth {
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
	// is removed (and additionally a border marked by greedyQuorum means is
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
		threshold := greedyThreshold(scores)
		for i, s := range scores {
			switch {
			case depths[i] < greedyMinDepth:
				// abstain: this mean sees no shift at the border
			case s >= threshold:
				defends[i]++
			default:
				marks[i]++
			}
		}
	}
	var borders []int // nil when none survives
	for i, def := range defends {
		if def > 0 && marks[i] < greedyQuorum && marks[i] <= def {
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

// MeanStd returns the mean and population standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean = float64(mean / float64(len(xs))) // inlined over a constant length, a product the next loop could fuse
	for _, x := range xs {
		std += float64((x - mean) * (x - mean))
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
