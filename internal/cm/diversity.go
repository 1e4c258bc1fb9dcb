package cm

import (
	"math"

	"repro/internal/portlog"
)

// This file implements the statistics of Sec 5.2: Shannon's diversity index
// per communication mean (Eq 1), richness, segment coherence (Eq 2), border
// depth (Eq 3), and the border score (Eq 4).
//
// Shannon diversity uses log base 10 so that with at most three categorical
// values per mean the index stays below log10(3) ≈ 0.477 and the coherence
// 1 − div of Eq 2 stays inside (0, 1], matching the paper's remark that
// coherence "takes values less than one".

// shannonTabMax bounds the precomputed p·log10(p) lookup below. CM counts
// are small integers (feature observations per span), so almost every
// ShannonIndex call during segmentation hits the table instead of Log10.
const shannonTabMax = 96

// shannonTab[all][c] = (c/all)·log10(c/all), precomputed with exactly the
// arithmetic the slow path uses so table hits are bit-identical to it.
var shannonTab = func() [][]float64 {
	tab := make([][]float64, shannonTabMax)
	for all := 1; all < shannonTabMax; all++ {
		row := make([]float64, all+1)
		for c := 1; c <= all; c++ {
			p := float64(c) / float64(all)
			row[c] = p * portlog.Log10(p)
		}
		tab[all] = row
	}
	return tab
}()

// ShannonIndex computes Shannon's diversity index (Eq 1) of a distribution
// table: −Σ p_j·log10(p_j) over the non-zero cells. An empty table has
// diversity 0 (a vacuously even, minimal-richness distribution). Tables of
// small integer counts — the segmentation hot path — resolve through a
// precomputed lookup with results bit-identical to the direct computation.
func ShannonIndex(table []float64) float64 {
	var all float64
	for _, c := range table {
		all += c
	}
	if all == 0 {
		return 0
	}
	if div, ok := shannonSmallInt(table, all); ok {
		return div
	}
	var div float64
	for _, c := range table {
		if c <= 0 {
			continue
		}
		p := c / all
		div -= float64(p * portlog.Log10(p))
	}
	return div
}

// shannonSmallInt resolves ShannonIndex through the precomputed table when
// every count is a small non-negative integer. The second return is false
// when any cell falls outside the table's domain (caller falls back to the
// direct computation).
func shannonSmallInt(table []float64, all float64) (float64, bool) {
	ai := int(all)
	if float64(ai) != all || ai < 1 || ai >= shannonTabMax {
		return 0, false
	}
	row := shannonTab[ai]
	var div float64
	for _, c := range table {
		if c <= 0 {
			continue
		}
		ci := int(c)
		if float64(ci) != c || ci > ai {
			return 0, false
		}
		div -= row[ci]
	}
	return div, true
}

// RichnessIndex is the normalized richness of a distribution table: the
// fraction of categorical values with non-zero observations. It ignores
// evenness, which is exactly why Fig 9 finds it weaker than Shannon's index.
func RichnessIndex(table []float64) float64 {
	if len(table) == 0 {
		return 0
	}
	nz := 0
	for _, c := range table {
		if c > 0 {
			nz++
		}
	}
	return float64(nz) / float64(len(table))
}

// DiversityFunc maps a distribution table to a diversity value in [0, 1).
// ShannonIndex and RichnessIndex are the two instances studied in Fig 9.
// The table an implementation receives is a read-only view into the caller's
// annotation, valid only for the duration of the call — implementations must
// not modify or retain it.
type DiversityFunc func(table []float64) float64

// Diversity computes the diversity of mean m within the annotated span
// using Shannon's index.
func Diversity(a Annotation, m Mean) float64 {
	lo, hi := FeaturesOf(m)
	return ShannonIndex(a.Counts[lo:hi])
}

// Coherence computes the segment coherence of Eq 2 with Shannon diversity:
// the mean over all communication means of 1 − div_CM(s).
func Coherence(a Annotation) float64 {
	return CoherenceWith(a, ShannonIndex)
}

// CoherenceWith computes Eq 2 with an arbitrary diversity function.
func CoherenceWith(a Annotation, div DiversityFunc) float64 {
	var sum float64
	for m := Mean(0); m < NumMeans; m++ {
		lo, hi := FeaturesOf(m)
		sum += 1.0 - div(a.Counts[lo:hi])
	}
	return sum / float64(NumMeans)
}

// CoherenceOfMean computes the single-mean coherence 1 − div_CM(s), used by
// the Greedy border-selection strategy that votes one communication mean at
// a time.
func CoherenceOfMean(a Annotation, m Mean, div DiversityFunc) float64 {
	lo, hi := FeaturesOf(m)
	return 1.0 - div(a.Counts[lo:hi])
}

// ShannonCoherence is the direct form of CoherenceWith(a, ShannonIndex) for
// the segmentation hot loop: the pointer argument and concrete diversity
// call keep the ~240-byte Annotation out of both the copy path and the heap
// (an indirect DiversityFunc forces the receiver to escape). Results are
// bit-identical to the generic form.
func ShannonCoherence(a *Annotation) float64 {
	var sum float64
	for m := Mean(0); m < NumMeans; m++ {
		lo, hi := FeaturesOf(m)
		sum += 1.0 - ShannonIndex(a.Counts[lo:hi])
	}
	return sum / float64(NumMeans)
}

// ShannonCoherenceOfMean is the direct form of
// CoherenceOfMean(a, m, ShannonIndex); see ShannonCoherence.
func ShannonCoherenceOfMean(a *Annotation, m Mean) float64 {
	lo, hi := FeaturesOf(m)
	return 1.0 - ShannonIndex(a.Counts[lo:hi])
}

// Depth computes the border depth of Eq 3 from the coherences of the left
// segment, the right segment, and their hypothetical concatenation. A deep
// border separates two segments that are each more coherent than their
// union.
func Depth(cohLeft, cohRight, cohMerged float64) float64 {
	if cohMerged == 0 {
		return 0
	}
	return (math.Abs(cohLeft-cohMerged) + math.Abs(cohRight-cohMerged)) / (2 * cohMerged)
}

// BorderScore combines the two segment coherences and the border depth into
// the border score of Eq 4 (their plain average).
func BorderScore(cohLeft, cohRight, depth float64) float64 {
	return (cohLeft + cohRight + depth) / 3
}

// ScoreBorder evaluates the border between two annotated spans end to end:
// it derives the merged annotation, computes the three coherences with the
// supplied diversity function, and returns (score, depth).
func ScoreBorder(left, right Annotation, div DiversityFunc) (score, depth float64) {
	merged := left.Add(right)
	cl := CoherenceWith(left, div)
	cr := CoherenceWith(right, div)
	cd := CoherenceWith(merged, div)
	d := Depth(cl, cr, cd)
	return BorderScore(cl, cr, d), d
}

// ShannonScoreBorder is the direct form of
// ScoreBorder(left, right, ShannonIndex); see ShannonCoherence. The merged
// annotation stays on the caller's stack.
func ShannonScoreBorder(left, right *Annotation) (score, depth float64) {
	var merged Annotation
	left.AddInto(right, &merged)
	cl := ShannonCoherence(left)
	cr := ShannonCoherence(right)
	cd := ShannonCoherence(&merged)
	d := Depth(cl, cr, cd)
	return BorderScore(cl, cr, d), d
}
