package variant

import (
	"math/rand"
	"testing"
	"testing/quick"
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

func TestDBSCANTwoClusters(t *testing.T) {
	pts, _ := twoBlobs(30, 1)
	labels, k := dbscan(pts, 0.1, 3)
	if k != 2 {
		t.Fatalf("DBSCAN found %d clusters, want 2", k)
	}
	// All members of a blob share a label, and the blobs differ.
	for i := 1; i < 30; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("blob 1 split: labels[%d]=%d labels[0]=%d", i, labels[i], labels[0])
		}
	}
	for i := 31; i < 60; i++ {
		if labels[i] != labels[30] {
			t.Fatalf("blob 2 split")
		}
	}
	if labels[0] == labels[30] {
		t.Fatal("blobs merged")
	}
}

func TestDBSCANNoise(t *testing.T) {
	pts, _ := twoBlobs(20, 2)
	pts = append(pts, []float64{0.5, 0.1}, []float64{0.1, 0.9})
	labels, k := dbscan(pts, 0.08, 4)
	if k != 2 {
		t.Fatalf("found %d clusters, want 2", k)
	}
	if labels[len(pts)-1] != Noise || labels[len(pts)-2] != Noise {
		t.Errorf("outliers not labeled noise: %d %d", labels[len(pts)-2], labels[len(pts)-1])
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	labels, k := dbscan(pts, 0.1, 3)
	if k != 0 {
		t.Fatalf("k = %d, want 0", k)
	}
	for _, l := range labels {
		if l != Noise {
			t.Fatal("expected all noise")
		}
	}
}

func TestDBSCANEmpty(t *testing.T) {
	labels, k := dbscan(nil, 0.1, 3)
	if len(labels) != 0 || k != 0 {
		t.Fatal("empty input should yield empty labels")
	}
}

func TestDBSCANMinPtsOne(t *testing.T) {
	// minPts 1: every point is a core point; singletons become clusters.
	pts := [][]float64{{0, 0}, {10, 10}}
	labels, k := dbscan(pts, 0.5, 1)
	if k != 2 || labels[0] == labels[1] {
		t.Fatalf("minPts=1: labels=%v k=%d", labels, k)
	}
}

// Property: labels are always in {Noise} ∪ [0,k) and label count equals
// point count.
func TestDBSCANLabelRangeProperty(t *testing.T) {
	f := func(raw []uint8, eps8 uint8, minPts8 uint8) bool {
		var pts [][]float64
		for i := 0; i+1 < len(raw) && len(pts) < 40; i += 2 {
			pts = append(pts, []float64{float64(raw[i]) / 255, float64(raw[i+1]) / 255})
		}
		eps := 0.01 + float64(eps8)/255
		minPts := 1 + int(minPts8%5)
		labels, k := dbscan(pts, eps, minPts)
		if len(labels) != len(pts) {
			return false
		}
		for _, l := range labels {
			if l != Noise && (l < 0 || l >= k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateEps(t *testing.T) {
	pts, _ := twoBlobs(25, 3)
	eps := estimateEps(pts, 3)
	if eps <= 0 || eps > 0.2 {
		t.Fatalf("estimateEps = %v, want small positive for tight blobs", eps)
	}
	labels, k := dbscan(pts, eps, 4)
	if k != 2 {
		t.Fatalf("DBSCAN with estimated eps found %d clusters, want 2 (eps=%v)", k, eps)
	}
	_ = labels
	if estimateEps(nil, 3) != 0 {
		t.Error("estimateEps(nil) != 0")
	}
}

func TestSampledMatchesExactOnSmallInput(t *testing.T) {
	pts, _ := twoBlobs(20, 4)
	exactLabels, exactK := dbscan(pts, 0.1, 3)
	sampLabels, sampK := sampled(pts, 0.1, 3, 1000)
	if exactK != sampK {
		t.Fatalf("sampled k=%d, exact k=%d", sampK, exactK)
	}
	for i := range pts {
		if (exactLabels[i] == Noise) != (sampLabels[i] == Noise) {
			t.Fatalf("noise disagreement at %d", i)
		}
	}
}

func TestSampledLargeInput(t *testing.T) {
	pts, want := twoBlobs(600, 5)
	labels, k := sampled(pts, 0.1, 3, 100)
	if k != 2 {
		t.Fatalf("sampled found %d clusters, want 2", k)
	}
	// Points of the same blob must agree with each other.
	agree := 0
	for i := range pts {
		if labels[i] == labels[want(i)*600] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(pts)); frac < 0.95 {
		t.Errorf("sampled assignment agreement %.2f < 0.95", frac)
	}
}

func TestAssignNoise(t *testing.T) {
	pts := [][]float64{{0, 0}, {10, 10}, {1, 1}, {9, 9}}
	labels := []int{0, 1, Noise, Noise}
	cents := [][]float64{{0, 0}, {10, 10}}
	moved := assignNoise(pts, labels, cents)
	if moved != 2 {
		t.Fatalf("moved = %d, want 2", moved)
	}
	if labels[2] != 0 || labels[3] != 1 {
		t.Errorf("labels after assignNoise = %v", labels)
	}
	if assignNoise(pts, labels, nil) != 0 {
		t.Error("assignNoise with no centroids should move nothing")
	}
}

func BenchmarkDBSCAN1000(b *testing.B) {
	pts, _ := twoBlobs(500, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dbscan(pts, 0.1, 4)
	}
}

func BenchmarkSampled10000(b *testing.B) {
	pts, _ := twoBlobs(5000, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sampled(pts, 0.1, 4, 500)
	}
}
