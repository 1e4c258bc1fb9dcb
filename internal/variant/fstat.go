package variant

import (
	"repro/internal/cm"
	"repro/internal/segment"
)

// FStat scores borders with an F-statistic — the alternative Sec 5.3
// mentions alongside Eq 4 ("the score can be computed using a weighted sum
// of coherence and depth, the f-statistics, or any other metric as long as
// it is consistent with the above principle"). Each sentence unit
// contributes one observation per communication-means feature; the border
// is good when between-segment variance dominates within-segment variance.
// The raw F ratio is squashed to (0, 1) as F/(1+F) so it composes with the
// strategies' distribution-relative thresholds.
type FStat struct{}

// Name implements ScoreFunc.
func (FStat) Name() string { return "F-stat" }

// BorderScore implements ScoreFunc. The F ratio needs three units; a
// window of fewer (Tile's one unit a side) is widened to two units a
// side, clamped to the document. Over one unit a side every border
// would score 0, and Tile would keep them all.
func (FStat) BorderScore(d *segment.Doc, lo, b, hi int) float64 {
	if hi-lo < 3 {
		lo, hi = max(0, b-2), min(d.Len(), b+2)
	}
	f := fRatio(d, lo, b, hi)
	return f / (1 + f)
}

// SegCoherence implements ScoreFunc: one minus the squashed within-segment
// F ratio of the segment against its own mean — a homogeneous segment has
// low internal variance.
func (FStat) SegCoherence(d *segment.Doc, lo, hi int) float64 {
	if hi-lo <= 1 {
		return 1
	}
	// Within-variance of the segment around its mean, normalized per unit.
	mean := unitMeans(d, lo, hi)
	var within float64
	for i := lo; i < hi; i++ {
		u := unitVector(d, i)
		for f := range u {
			diff := u[f] - mean[f]
			within += float64(diff * diff)
		}
	}
	within /= float64(hi - lo)
	return 1 / (1 + within)
}

// fRatio computes the mean per-feature F statistic of the two groups
// [lo,b) and [b,hi) of sentence observations.
func fRatio(d *segment.Doc, lo, b, hi int) float64 {
	n1, n2 := b-lo, hi-b
	if n1 < 1 || n2 < 1 || n1+n2 < 3 {
		return 0
	}
	m1 := unitMeans(d, lo, b)
	m2 := unitMeans(d, b, hi)
	grand := make([]float64, len(m1))
	for f := range grand {
		grand[f] = (float64(m1[f]*float64(n1)) + float64(m2[f]*float64(n2))) / float64(n1+n2)
	}
	var between, within float64
	for f := range grand {
		between += float64(float64(n1)*sq(m1[f]-grand[f])) + float64(float64(n2)*sq(m2[f]-grand[f]))
	}
	for i := lo; i < hi; i++ {
		u := unitVector(d, i)
		m := m1
		if i >= b {
			m = m2
		}
		for f := range u {
			within += sq(u[f] - m[f])
		}
	}
	// df_between = 1 (two groups), df_within = n1+n2−2.
	msBetween := between
	msWithin := within / float64(n1+n2-2)
	if msWithin == 0 {
		if msBetween == 0 {
			return 0
		}
		return 1e6 // perfectly separated groups
	}
	return msBetween / msWithin
}

// unitVector is the normalized CM observation of one sentence unit: its
// Eq 5 within-segment weights (scale-free across sentence lengths).
func unitVector(d *segment.Doc, i int) []float64 {
	return cm.WithinSegmentWeights(d.Range(i, i+1))
}

// unitMeans averages the unit vectors of [lo, hi).
func unitMeans(d *segment.Doc, lo, hi int) []float64 {
	out := make([]float64, cm.NumFeatures)
	for i := lo; i < hi; i++ {
		for f, v := range unitVector(d, i) {
			out[f] += v
		}
	}
	for f := range out {
		out[f] /= float64(hi - lo)
	}
	return out
}

func sq(x float64) float64 { return float64(x * x) }
