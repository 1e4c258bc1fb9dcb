package variant

import "repro/internal/cluster"

// DBSCANNaive is the exact O(n²) region-query form of DBSCAN — the
// reference implementation the indexed DBSCAN is property-tested against.
// It exists as the oracle: any labeling disagreement between the two is a
// bug in the index, never a modeling choice.
func DBSCANNaive(points [][]float64, eps float64, minPts int) (labels []int, k int) {
	n := len(points)
	labels = make([]int, n)
	for i := range labels {
		labels[i] = Noise - 1 // unvisited
	}
	const unvisited = Noise - 1

	epsSq := eps * eps
	neighbors := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if j != i && cluster.SqDist(points[i], points[j]) <= epsSq {
				out = append(out, j)
			}
		}
		return out
	}

	k = 0
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		nb := neighbors(i)
		if len(nb)+1 < minPts {
			labels[i] = Noise
			continue
		}
		labels[i] = k
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if labels[j] == Noise {
				labels[j] = k // border point
				continue
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = k
			jnb := neighbors(j)
			if len(jnb)+1 >= minPts {
				queue = append(queue, jnb...)
			}
		}
		k++
	}
	return labels, k
}
