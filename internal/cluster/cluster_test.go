package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// twoBlobs generates two well-separated Gaussian-ish blobs plus far
// outliers, deterministically.
func twoBlobs(nPer int, seed int64) (points [][]float64, wantLabelOf func(i int) int) {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float64
	for i := 0; i < nPer; i++ {
		pts = append(pts, []float64{0.1 + float64(rng.Float64()*0.05), 0.1 + float64(rng.Float64()*0.05)})
	}
	for i := 0; i < nPer; i++ {
		pts = append(pts, []float64{0.9 + float64(rng.Float64()*0.05), 0.9 + float64(rng.Float64()*0.05)})
	}
	return pts, func(i int) int {
		if i < nPer {
			return 0
		}
		return 1
	}
}

func TestCentroids(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 2}, {10, 10}, {12, 12}, {100, 100}}
	labels := []int{0, 0, 1, 1, -1}
	cents := Centroids(pts, labels, 2)
	if len(cents) != 2 {
		t.Fatalf("got %d centroids", len(cents))
	}
	if cents[0][0] != 1 || cents[0][1] != 1 {
		t.Errorf("centroid 0 = %v, want [1 1]", cents[0])
	}
	if cents[1][0] != 11 || cents[1][1] != 11 {
		t.Errorf("centroid 1 = %v, want [11 11]", cents[1])
	}
	if Centroids(nil, nil, 0) != nil {
		t.Error("Centroids of nothing should be nil")
	}
}

func TestSizes(t *testing.T) {
	sizes := clusterSizes([]int{0, 0, 1, -1, 1, 1}, 2)
	if sizes[0] != 2 || sizes[1] != 3 {
		t.Errorf("Sizes = %v", sizes)
	}
}

func TestKMeansTwoClusters(t *testing.T) {
	pts, want := twoBlobs(40, 6)
	labels := KMeans(pts, 2, 42, 0)
	// Same-blob points share a label; blobs differ.
	for i := 1; i < 40; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("blob 1 split by kmeans")
		}
	}
	if labels[0] == labels[40] {
		t.Fatal("blobs merged by kmeans")
	}
	_ = want
}

func TestKMeansDeterministic(t *testing.T) {
	pts, _ := twoBlobs(30, 7)
	a := KMeans(pts, 3, 99, 0)
	b := KMeans(pts, 3, 99, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("KMeans with same seed differs across runs")
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if got := KMeans(nil, 3, 1, 0); len(got) != 0 {
		t.Error("KMeans(nil) should be empty")
	}
	// k > n clamps to n.
	pts := [][]float64{{0}, {1}}
	labels := KMeans(pts, 5, 1, 0)
	for _, l := range labels {
		if l < 0 || l >= 2 {
			t.Errorf("label %d out of range after clamp", l)
		}
	}
	// Identical points: must terminate and label everything.
	same := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	labels = KMeans(same, 2, 1, 0)
	if len(labels) != 4 {
		t.Error("KMeans on identical points broke")
	}
}

func TestInertia(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 0}}
	labels := []int{0, 0}
	cents := [][]float64{{1, 0}}
	if got := inertia(pts, labels, cents); math.Abs(got-2) > 1e-12 {
		t.Errorf("Inertia = %v, want 2", got)
	}
}

// TestParallelInvariance locks in the documented guarantee that k-means
// and the centroid reduction return the same result for any GOMAXPROCS,
// the pool size of their parallel passes (the -race run of this test
// also exercises the concurrent paths).
func TestParallelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 1500)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wantKM := KMeans(pts, 4, 42, 0)
	wantCents := Centroids(pts, wantKM, 4)
	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		if got := KMeans(pts, 4, 42, 0); !slices.Equal(got, wantKM) {
			t.Errorf("GOMAXPROCS=%d: KMeans labels differ", procs)
		}
		cents := Centroids(pts, wantKM, 4)
		for c := range wantCents {
			if !slices.Equal(cents[c], wantCents[c]) {
				t.Fatalf("GOMAXPROCS=%d: centroid %d %v != %v", procs, c, cents[c], wantCents[c])
			}
		}
	}
}

// inertia returns the total within-cluster sum of squared distances — the
// k-means objective, useful for elbow-style diagnostics in experiments.
func inertia(points [][]float64, labels []int, centroids [][]float64) float64 {
	var sum float64
	for i, p := range points {
		c := labels[i]
		if c >= 0 && c < len(centroids) {
			sum += SqDist(p, centroids[c])
		}
	}
	return sum
}
