package match

// Accessors only the tests read.

// DriftStats measures how far the current segment population has drifted
// from the frozen centroids: the mean distance of a deterministic sample
// of each cluster's units... since original vectors are not retained, the
// proxy is cluster-size imbalance: the ratio between the largest and
// smallest non-empty intention cluster. A ratio far above the value at
// build time suggests a re-build (Sec 9.2: re-running clustering on the
// whole updated collection is cheap).
func (mr *MR) DriftStats() (minSize, maxSize int) {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	for _, ix := range mr.clusters {
		n := ix.NumUnits()
		if n == 0 {
			continue
		}
		if minSize == 0 || n < minSize {
			minSize = n
		}
		if n > maxSize {
			maxSize = n
		}
	}
	return minSize, maxSize
}

// ClusterSizes returns the number of (refined) segments per cluster.
func (mr *MR) ClusterSizes() []int {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	out := make([]int, len(mr.clusters))
	for c, ix := range mr.clusters {
		out[c] = ix.NumUnits()
	}
	return out
}
