package variant

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
)

// randPoints draws n points of the given dimension, mixing a few dense
// blobs with uniform background noise so DBSCAN sees both clusters and
// outliers.
func randPoints(n, dim int, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, 3)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64()
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		if rng.Float64() < 0.8 {
			c := centers[rng.Intn(len(centers))]
			for d := range p {
				p[d] = c[d] + float64((float64(rng.Float64())-0.5)*0.08)
			}
		} else {
			for d := range p {
				p[d] = rng.Float64()
			}
		}
		pts[i] = p
	}
	return pts
}

// TestGridRadiusMatchesLinearScan checks the index primitive itself: a
// grid radius query must return exactly the points a full scan finds,
// in ascending order.
func TestGridRadiusMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 2, 3, 5, 28} {
		pts := randPoints(150, dim, rng)
		for _, r := range []float64{0, 0.02, 0.1, 0.5, 2} {
			g := newGrid(pts, r)
			var buf []int32
			for i := 0; i < len(pts); i += 17 {
				buf = g.Radius(pts[i], r, i, buf)
				var want []int32
				rSq := r * r
				for j := range pts {
					if j != i && cluster.SqDist(pts[i], pts[j]) <= rSq {
						want = append(want, int32(j))
					}
				}
				if len(buf) != len(want) {
					t.Fatalf("dim=%d r=%v q=%d: grid found %d, scan found %d", dim, r, i, len(buf), len(want))
				}
				for a := range want {
					if buf[a] != want[a] {
						t.Fatalf("dim=%d r=%v q=%d: grid[%d]=%d, scan[%d]=%d", dim, r, i, a, buf[a], a, want[a])
					}
				}
			}
		}
	}
}

// TestDBSCANMatchesNaiveProperty is the exactness guard the indexed
// dbscan ships under: across randomized point sets, dimensions, radii,
// and density thresholds, the grid-indexed DBSCAN must produce the very
// same labeling as the naive O(n²) oracle — label-identical, which is
// stronger than label-isomorphic.
func TestDBSCANMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cases := 0
	for _, dim := range []int{1, 2, 3, 4, 8, 28} {
		for _, n := range []int{0, 1, 17, 120} {
			pts := randPoints(n, dim, rng)
			for _, eps := range []float64{0.01, 0.05, 0.12, 0.4} {
				for _, minPts := range []int{1, 2, 4, 7} {
					gotL, gotK := dbscan(pts, eps, minPts)
					wantL, wantK := DBSCANNaive(pts, eps, minPts)
					if gotK != wantK {
						t.Fatalf("dim=%d n=%d eps=%v minPts=%d: k=%d, oracle k=%d", dim, n, eps, minPts, gotK, wantK)
					}
					for i := range wantL {
						if gotL[i] != wantL[i] {
							t.Fatalf("dim=%d n=%d eps=%v minPts=%d: labels[%d]=%d, oracle %d",
								dim, n, eps, minPts, i, gotL[i], wantL[i])
						}
					}
					cases++
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no cases exercised")
	}
}

// TestDBSCANDuplicatePoints covers coincident points (zero-distance
// neighborhoods stress the cell boundary handling).
func TestDBSCANDuplicatePoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}, {1, 1}}
	gotL, gotK := dbscan(pts, 0.001, 3)
	wantL, wantK := DBSCANNaive(pts, 0.001, 3)
	if gotK != wantK {
		t.Fatalf("k=%d, oracle %d", gotK, wantK)
	}
	for i := range wantL {
		if gotL[i] != wantL[i] {
			t.Fatalf("labels[%d]=%d, oracle %d", i, gotL[i], wantL[i])
		}
	}
}

// TestParallelInvariance locks in the documented guarantee that every
// parallelized DBSCAN-side primitive returns the same result for any
// GOMAXPROCS, the pool size of its passes (the -race run of this test
// also exercises the concurrent paths).
func TestParallelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(1500, 5, rng)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wantEps := estimateEps(pts, 3)
	wantSampledL, wantSampledK := sampled(pts, 0.1, 4, 300)
	km := cluster.KMeans(pts, 4, 42, 0)
	cents := cluster.Centroids(pts, km, 4)
	noisy := append([]int(nil), km...)
	for i := 0; i < len(noisy); i += 7 {
		noisy[i] = Noise
	}
	wantNoise := append([]int(nil), noisy...)
	wantMoved := assignNoise(pts, wantNoise, cents)

	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		if got := estimateEps(pts, 3); got != wantEps {
			t.Errorf("GOMAXPROCS=%d: estimateEps %v != %v", procs, got, wantEps)
		}
		gotL, gotK := sampled(pts, 0.1, 4, 300)
		if gotK != wantSampledK || !slices.Equal(gotL, wantSampledL) {
			t.Errorf("GOMAXPROCS=%d: sampled differs", procs)
		}
		relabel := append([]int(nil), noisy...)
		if moved := assignNoise(pts, relabel, cents); moved != wantMoved || !slices.Equal(relabel, wantNoise) {
			t.Errorf("GOMAXPROCS=%d: assignNoise differs (moved %d want %d)", procs, moved, wantMoved)
		}
	}
}

func TestEstimateEpsSampled(t *testing.T) {
	// Large vector sets route through the sampled estimator. Points spread
	// along a line so nearest-neighbor distances are nonzero.
	var vecs [][]float64
	for i := 0; i < 1200; i++ {
		vecs = append(vecs, []float64{float64(i) / 100, float64(i%13) / 10})
	}
	eps := estimateEpsSampled(vecs, 3, 500)
	if eps <= 0 {
		t.Errorf("sampled eps = %v, want > 0", eps)
	}
	// Small sets use the exact estimator; both paths must agree on scale.
	exact := estimateEpsSampled(vecs[:400], 3, 500)
	if exact <= 0 {
		t.Errorf("exact eps = %v", exact)
	}
	// The sampled path must equal the exact estimator over the sample.
	if got, want := estimateEpsSampled(vecs, 3, 400), estimateEps(vecs[:1200:1200], 3); got <= 0 || want <= 0 {
		t.Errorf("estimators degenerate: sampled %v exact %v", got, want)
	}
}

// BenchmarkDBSCANNaive1000 is the oracle's cost next to
// BenchmarkDBSCAN1000 (which now runs the indexed form on the same
// points).
func BenchmarkDBSCANNaive1000(b *testing.B) {
	pts, _ := twoBlobs(500, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DBSCANNaive(pts, 0.1, 4)
	}
}
