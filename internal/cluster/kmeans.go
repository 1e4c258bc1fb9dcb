// Package cluster implements the segment-grouping step of Sec 6 as the
// pipeline ships it: k-means over segment weight vectors (Lloyd's
// algorithm, k-means++ seeding) and centroid computation (Fig 3, and the
// centroids an added post's segments are assigned by). Both fan out over
// a bounded worker pool and produce output identical to their serial
// form. DBSCAN, the paper's own grouper, is an alternate stage in
// internal/variant (DESIGN.md, Substitutions, says why k-means ships).
package cluster

import (
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/par"
)

// KMeans clusters points into k groups with Lloyd's algorithm and
// k-means++ seeding. It is the pipeline's grouper (at k = 6 over Eq 5
// vectors; match.GroupKMeans), the distance-based comparison point the
// paper contrasts DBSCAN against (Sec 6), and the Content-MR baseline's
// over hashed TF vectors. The seed makes runs reproducible; maxIter
// bounds Lloyd iterations (25 covers convergence on segment vectors).
// The assignment step (every point against every centroid — the dominant
// cost) and the k-means++ D² pass run over at most GOMAXPROCS goroutines;
// all random draws stay on the caller's goroutine, so the labeling for a
// given seed is identical for any GOMAXPROCS. It returns one cluster
// label per point, always in 0..k-1.
func KMeans(points [][]float64, k int, seed int64, maxIter int) []int {
	n := len(points)
	labels := make([]int, n)
	if n == 0 || k <= 0 {
		return labels
	}
	if k > n {
		k = n
	}
	if maxIter <= 0 {
		maxIter = 25
	}
	rng := rand.New(rand.NewSource(seed))
	cents := seedPlusPlus(points, k, rng)

	for iter := 0; iter < maxIter; iter++ {
		var changed atomic.Bool
		par.Chunks(n, func(lo, hi int) {
			chunkChanged := false
			for i := lo; i < hi; i++ {
				best, bestD := 0, math.Inf(1)
				for c := range cents {
					if d := SqDist(points[i], cents[c]); d < bestD {
						best, bestD = c, d
					}
				}
				if labels[i] != best {
					labels[i] = best
					chunkChanged = true
				}
			}
			if chunkChanged {
				changed.Store(true)
			}
		})
		if !changed.Load() && iter > 0 {
			break
		}
		cents = recompute(points, labels, k, rng)
	}
	return labels
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting.
// The D² distances are computed in parallel, then summed and sampled in
// index order on the caller's goroutine, so the seeding is deterministic.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	cents := make([][]float64, 0, k)
	cents = append(cents, clone(points[rng.Intn(n)]))
	d2 := make([]float64, n)
	for len(cents) < k {
		par.Chunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				best := math.Inf(1)
				for _, c := range cents {
					if d := SqDist(points[i], c); d < best {
						best = d
					}
				}
				d2[i] = best
			}
		})
		var total float64
		for _, d := range d2 {
			total += d
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			cents = append(cents, clone(points[rng.Intn(n)]))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		cents = append(cents, clone(points[idx]))
	}
	return cents
}

// recompute derives new centroids from the labeling; an emptied cluster is
// re-seeded with a random point to keep k stable.
func recompute(points [][]float64, labels []int, k int, rng *rand.Rand) [][]float64 {
	cents := Centroids(points, labels, k)
	sizes := clusterSizes(labels, k)
	for c := range cents {
		if sizes[c] == 0 {
			cents[c] = clone(points[rng.Intn(len(points))])
		}
	}
	return cents
}

func clone(p []float64) []float64 {
	out := make([]float64, len(p))
	copy(out, p)
	return out
}

// centroidChunks fixes the number of partial sums the parallel centroid
// reduction folds together. It is a constant — not the worker count — so
// the floating-point summation order, and therefore the result, is
// identical on every machine regardless of GOMAXPROCS.
const centroidChunks = 16

// Centroids computes the mean vector of each cluster. Points with a
// negative label (DBSCAN's noise) are excluded. Clusters with no members
// yield zero vectors. Large inputs accumulate per-chunk partial sums over
// at most GOMAXPROCS goroutines (small inputs run serially, producing
// bit-identical results to the original single-pass form).
func Centroids(points [][]float64, labels []int, k int) [][]float64 {
	if k == 0 || len(points) == 0 {
		return nil
	}
	dim := len(points[0])
	cents := make([][]float64, k)
	for i := range cents {
		cents[i] = make([]float64, dim)
	}
	counts := make([]int, k)
	n := len(points)

	accumulate := func(cents [][]float64, counts []int, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := labels[i]
			if c < 0 || c >= k {
				continue
			}
			counts[c]++
			for d, v := range points[i] {
				cents[c][d] += v
			}
		}
	}

	if n < centroidChunks*64 {
		accumulate(cents, counts, 0, n)
	} else {
		partials := make([][][]float64, centroidChunks)
		partialCounts := make([][]int, centroidChunks)
		par.Do(centroidChunks, func(ci int) {
			p := make([][]float64, k)
			for i := range p {
				p[i] = make([]float64, dim)
			}
			pc := make([]int, k)
			accumulate(p, pc, ci*n/centroidChunks, (ci+1)*n/centroidChunks)
			partials[ci], partialCounts[ci] = p, pc
		})
		// Reduce in fixed chunk order: deterministic float summation.
		for ci := 0; ci < centroidChunks; ci++ {
			for c := 0; c < k; c++ {
				counts[c] += partialCounts[ci][c]
				for d := range cents[c] {
					cents[c][d] += partials[ci][c][d]
				}
			}
		}
	}

	for c := range cents {
		if counts[c] == 0 {
			continue
		}
		for d := range cents[c] {
			cents[c][d] /= float64(counts[c])
		}
	}
	return cents
}

// clusterSizes returns the member count of each cluster label (ignoring negative
// labels).
func clusterSizes(labels []int, k int) []int {
	sizes := make([]int, k)
	for _, l := range labels {
		if l >= 0 && l < k {
			sizes[l]++
		}
	}
	return sizes
}

// SqDist is the squared Euclidean distance between two points of one
// dimension.
func SqDist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += float64(d * d)
	}
	return sum
}
