// Package variant holds the alternatives to the paper's method that only
// the evaluation harness builds: the other border-selection mechanisms of
// Sec 5.3, the per-sentence segmentation, Hearst's TextTiling, the Fig 9
// score functions, DBSCAN, and the full Eq 5+6 vectors. The strategies
// implement segment.Strategy; GroupDBSCAN and FullVectors have the shapes
// of match.MRConfig's Group and Vectorize stages. The package does not
// import match, and cmd/serve and bench never link it (CI checks it).
package variant

import (
	"repro/internal/cluster"
	"repro/internal/cm"
	"repro/internal/segment"
)

// GroupDBSCAN is the paper's grouping (Sec 6) as a match.MRConfig Group
// stage: DBSCAN with minPts 4 at an eps estimated on a 500-vector sample
// (sampled beyond 2 000 vectors), every noise point then assigned to its
// nearest cluster centroid so that all segments take part in matching,
// and one catch-all cluster when DBSCAN finds none. It draws no random
// numbers; the labeling is the same for any GOMAXPROCS.
func GroupDBSCAN(vectors [][]float64, _ int64) (labels []int, k int) {
	labels, k = sampled(vectors, estimateEpsSampled(vectors, 3, 500), 4, 2000)
	if k == 0 {
		for i := range labels {
			labels[i] = 0
		}
		return labels, 1
	}
	assignNoise(vectors, labels, cluster.Centroids(vectors, labels, k))
	return labels, k
}

// FullVectors is a match.MRConfig Vectorize stage: the paper's exact
// 28-element segment vector, Eq 5's within-segment weights followed by
// Eq 6's weights relative to the whole post. The served matcher groups
// by the Eq 5 half alone: on template-generated corpora the Eq 6 half
// encodes document structure, which adds within-intention variance.
func FullVectors(d *segment.Doc, lo, hi int) []float64 {
	return cm.WeightVector(d.Range(lo, hi), d.Range(0, d.Len()))
}
