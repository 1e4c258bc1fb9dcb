package variant

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/par"
)

// Noise is the label DBSCAN assigns to points that belong to no cluster.
const Noise = -1

// dbscan clusters points (dense vectors of equal dimension) with the
// classic density-based algorithm of Ester et al. (1996) under Euclidean
// distance. It returns one label per point — 0..k-1 for cluster members,
// Noise for outliers — and the number of clusters k. Region queries run
// through a grid cell-list index with a reused neighbor buffer, dropping
// the per-query cost from an O(n) scan to the candidate cells around the
// query point; the labeling is identical to the naive quadratic form
// (the test oracle in export_test.go). Use sampled for collections
// where even near-linear passes per point are too slow.
func dbscan(points [][]float64, eps float64, minPts int) (labels []int, k int) {
	n := len(points)
	labels = make([]int, n)
	for i := range labels {
		labels[i] = Noise - 1 // unvisited
	}
	const unvisited = Noise - 1

	cells := newGrid(points, eps)
	var nb []int32    // reused region-query buffer
	var queue []int32 // reused expansion frontier

	k = 0
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		nb = cells.Radius(points[i], eps, i, nb)
		if len(nb)+1 < minPts {
			labels[i] = Noise
			continue
		}
		// Start a new cluster and expand it over the density-reachable set.
		labels[i] = k
		queue = append(queue[:0], nb...)
		for head := 0; head < len(queue); head++ {
			j := int(queue[head])
			if labels[j] == Noise {
				labels[j] = k // border point
				continue
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = k
			nb = cells.Radius(points[j], eps, j, nb)
			if len(nb)+1 >= minPts {
				queue = append(queue, nb...)
			}
		}
		k++
	}
	return labels, k
}

// estimateEps returns a data-driven eps for DBSCAN: twice the 90th
// percentile of every point's distance to its k-th nearest neighbor (the
// "knee" of the sorted k-distance plot, approximated, with headroom so that
// uniform within-cluster spread does not fragment a cluster into density
// islands). k is typically minPts−1. The per-point k-distance pass is
// independent across points and runs over at most GOMAXPROCS goroutines;
// the result is identical for any GOMAXPROCS.
func estimateEps(points [][]float64, k int) float64 {
	n := len(points)
	if n == 0 || k <= 0 {
		return 0
	}
	if k >= n {
		k = n - 1
	}
	kd := make([]float64, n)
	par.Chunks(n, func(lo, hi int) {
		dists := make([]float64, 0, n-1)
		for i := lo; i < hi; i++ {
			dists = dists[:0]
			for j := 0; j < n; j++ {
				if i != j {
					dists = append(dists, cluster.SqDist(points[i], points[j]))
				}
			}
			sort.Float64s(dists)
			kd[i] = math.Sqrt(dists[k-1])
		}
	})
	sort.Float64s(kd)
	return 2 * kd[int(float64(len(kd))*0.9)]
}

// estimateEpsSampled runs the k-distance eps heuristic on a deterministic
// systematic sample of at most maxSample points (the exact heuristic is
// quadratic in the sample size).
func estimateEpsSampled(points [][]float64, k, maxSample int) float64 {
	if maxSample <= 0 || len(points) <= maxSample {
		return estimateEps(points, k)
	}
	stride := len(points) / maxSample
	sample := make([][]float64, 0, maxSample)
	for i := 0; i < len(points) && len(sample) < maxSample; i += stride {
		sample = append(sample, points[i])
	}
	return estimateEps(sample, k)
}

// sampled runs DBSCAN on a deterministic sample of at most sampleSize
// points, derives centroids, and assigns every remaining point to the
// nearest centroid within 2·eps (Noise otherwise). It trades exactness
// for linear scaling, which is what makes the Table 6 StackOverflow-scale
// grouping run in minutes instead of hours. The per-point assignment runs
// its candidate lookup through the same grid index DBSCAN queries, in
// parallel over at most GOMAXPROCS goroutines.
func sampled(points [][]float64, eps float64, minPts, sampleSize int) (labels []int, k int) {
	n := len(points)
	if n <= sampleSize {
		return dbscan(points, eps, minPts)
	}
	// Deterministic systematic sample: every n/sampleSize-th point.
	stride := n / sampleSize
	sample := make([][]float64, 0, sampleSize)
	for i := 0; i < n && len(sample) < sampleSize; i += stride {
		sample = append(sample, points[i])
	}
	sampleLabels, k := dbscan(sample, eps, minPts)
	cents := cluster.Centroids(sample, sampleLabels, k)

	labels = make([]int, n)
	assignEps := eps * 2 // looser radius for assignment to centroids
	assignEpsSq := assignEps * assignEps
	// Candidate lookup goes through the same cell-list index DBSCAN
	// queries once the centroid set is large enough for cell pruning to
	// beat a direct scan; below that, enumerating ~3^3 cells costs more
	// than comparing against every centroid. Both paths pick the same
	// centroid: the nearest within assignEps, lowest index on ties.
	const gridAssignMin = 32
	var cells *grid
	if k >= gridAssignMin {
		cells = newGrid(cents, assignEps)
	}
	par.Chunks(n, func(lo, hi int) {
		var buf []int32
		for i := lo; i < hi; i++ {
			best, bestD := Noise, math.Inf(1)
			if cells != nil {
				buf = cells.Radius(points[i], assignEps, -1, buf)
				for _, c := range buf {
					if d := cluster.SqDist(points[i], cents[c]); d < bestD {
						best, bestD = int(c), d
					}
				}
			} else {
				for c, cent := range cents {
					if d := cluster.SqDist(points[i], cent); d < bestD && d <= assignEpsSq {
						best, bestD = c, d
					}
				}
			}
			labels[i] = best
		}
	})
	return labels, k
}

// assignNoise relabels every Noise point to its nearest cluster centroid,
// so that all segments can participate in matching. It returns the number
// of points reassigned. With no centroids nothing changes. Points are
// independent, so the pass runs over at most GOMAXPROCS goroutines; labels
// are identical for any GOMAXPROCS.
func assignNoise(points [][]float64, labels []int, centroids [][]float64) int {
	if len(centroids) == 0 {
		return 0
	}
	var moved atomic.Int64
	par.Chunks(len(labels), func(lo, hi int) {
		chunkMoved := 0
		for i := lo; i < hi; i++ {
			if labels[i] != Noise {
				continue
			}
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := cluster.SqDist(points[i], cent); d < bestD {
					best, bestD = c, d
				}
			}
			labels[i] = best
			chunkMoved++
		}
		moved.Add(int64(chunkMoved))
	})
	return int(moved.Load())
}
