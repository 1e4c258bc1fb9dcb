package variant

import (
	"math"

	"repro/internal/cm"
	"repro/internal/segment"
)

// ScoreFunc evaluates candidate borders and segment coherence. The
// implementations are the five coherence/depth function combinations
// compared in Fig 9 of the paper: Shannon diversity and richness on the
// communication-means tables, and cosine/Euclidean/Manhattan distances on
// feature vectors. All scores are normalized so that higher means "better
// border" / "more coherent segment".
type ScoreFunc interface {
	// Name identifies the function in experiment output.
	Name() string
	// BorderScore scores the border at b separating units [lo,b) and [b,hi).
	BorderScore(d *segment.Doc, lo, b, hi int) float64
	// SegCoherence measures the internal coherence of units [lo,hi) in [0,1].
	SegCoherence(d *segment.Doc, lo, hi int) float64
}

// Shannon is the paper's default scoring: coherence by Shannon's diversity
// index over the CM tables (Eq 1–2), border depth by Eq 3, and the border
// score of Eq 4.
type Shannon struct{}

// Name implements ScoreFunc.
func (Shannon) Name() string { return "Shan.Div." }

// BorderScore implements ScoreFunc.
func (Shannon) BorderScore(d *segment.Doc, lo, b, hi int) float64 {
	left, right := d.Range(lo, b), d.Range(b, hi)
	score, _ := cm.ShannonScoreBorder(&left, &right)
	return score
}

// SegCoherence implements ScoreFunc.
func (Shannon) SegCoherence(d *segment.Doc, lo, hi int) float64 {
	ann := d.Range(lo, hi)
	return cm.ShannonCoherence(&ann)
}

// Richness scores like Shannon but measures diversity as the fraction of
// categorical values present, ignoring evenness.
type Richness struct{}

// Name implements ScoreFunc.
func (Richness) Name() string { return "Richness" }

// BorderScore implements ScoreFunc.
func (Richness) BorderScore(d *segment.Doc, lo, b, hi int) float64 {
	score, _ := cm.ScoreBorder(d.Range(lo, b), d.Range(b, hi), cm.RichnessIndex)
	return score
}

// SegCoherence implements ScoreFunc.
func (Richness) SegCoherence(d *segment.Doc, lo, hi int) float64 {
	return cm.CoherenceWith(d.Range(lo, hi), cm.RichnessIndex)
}

// distanceKind selects the vector distance of a Distance score function.
type distanceKind int

const (
	cosineDist distanceKind = iota
	euclideanDist
	manhattanDist
)

// Distance scores borders by a vector distance between the normalized CM
// count vectors of the two segments a border separates: a border is good
// when the two sides look different.
type Distance struct {
	Kind distanceKind
}

// Cosine, Euclidean and Manhattan are the Fig 9 distance variants on CM
// features.
var (
	Cosine    = Distance{Kind: cosineDist}
	Euclidean = Distance{Kind: euclideanDist}
	Manhattan = Distance{Kind: manhattanDist}
)

// Name implements ScoreFunc.
func (f Distance) Name() string {
	switch f.Kind {
	case cosineDist:
		return "Cos.Sim."
	case euclideanDist:
		return "Eucl.Dist."
	default:
		return "Manh.Dist."
	}
}

// vector returns the CM count vector of units [lo,hi). Vectors are dense,
// so every sum over one runs in index order and a score is the same on
// every call (Tile scores a border once).
func vector(d *segment.Doc, lo, hi int) []float64 {
	ann := d.Range(lo, hi)
	return ann.Counts[:]
}

// BorderScore implements ScoreFunc: the normalized distance between the two
// sides' vectors, in [0,1].
func (f Distance) BorderScore(d *segment.Doc, lo, b, hi int) float64 {
	return vectorDistance(f.Kind, vector(d, lo, b), vector(d, b, hi))
}

// SegCoherence implements ScoreFunc: one minus the average distance between
// consecutive sentence units inside the segment (a homogeneous segment has
// near-identical units).
func (f Distance) SegCoherence(d *segment.Doc, lo, hi int) float64 {
	if hi-lo <= 1 {
		return 1
	}
	var sum float64
	for i := lo; i < hi-1; i++ {
		sum += vectorDistance(f.Kind, vector(d, i, i+1), vector(d, i+1, i+2))
	}
	return 1 - sum/float64(hi-lo-1)
}

// vectorDistance computes the selected distance between two vectors of
// one length, normalized into [0,1]: cosine dissimilarity directly;
// Euclidean and Manhattan on L2-/L1-normalized vectors, divided by their
// maxima (√2, 2).
func vectorDistance(kind distanceKind, a, b []float64) float64 {
	switch kind {
	case cosineDist:
		return 1 - cosineSim(a, b)
	case euclideanDist:
		na, nb := l2norm(a), l2norm(b)
		if na == 0 || nb == 0 {
			if na == nb {
				return 0
			}
			return 1
		}
		var sum float64
		for k, va := range a {
			diff := va/na - b[k]/nb
			sum += float64(diff * diff)
		}
		return math.Sqrt(sum) / math.Sqrt2
	default: // manhattanDist
		na, nb := l1norm(a), l1norm(b)
		if na == 0 || nb == 0 {
			if na == nb {
				return 0
			}
			return 1
		}
		var sum float64
		for k, va := range a {
			sum += math.Abs(va/na - b[k]/nb)
		}
		return sum / 2
	}
}

func cosineSim(a, b []float64) float64 {
	na, nb := l2norm(a), l2norm(b)
	if na == 0 || nb == 0 {
		if na == nb {
			return 1
		}
		return 0
	}
	var dot float64
	for k, va := range a {
		dot += float64(va * b[k])
	}
	return dot / (na * nb)
}

func l2norm(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += float64(x * x)
	}
	return math.Sqrt(sum)
}

func l1norm(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += math.Abs(x)
	}
	return sum
}
