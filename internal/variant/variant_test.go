package variant

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cm"
	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/segment"
)

func corpusDocs(n int, seed int64) []*segment.Doc {
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: n, Seed: seed})
	docs := make([]*segment.Doc, len(posts))
	for i, p := range posts {
		docs[i] = segment.NewDoc(p.Text)
	}
	return docs
}

// TestGroupDBSCANAssignsNoise: the stage leaves no segment outside the
// intention clusters. DBSCAN's own clusters keep their labels and every
// noise point goes to its nearest centroid; data DBSCAN finds no cluster
// in is one catch-all cluster.
func TestGroupDBSCANAssignsNoise(t *testing.T) {
	pts, _ := twoBlobs(20, 2)
	pts = append(pts, []float64{0.5, 0.1}, []float64{0.1, 0.9})
	raw, rawK := sampled(pts, estimateEpsSampled(pts, 3, 500), 4, 2000)
	labels, k := GroupDBSCAN(pts, 0)
	if k != rawK || k == 0 {
		t.Fatalf("k = %d, DBSCAN found %d", k, rawK)
	}
	noise := 0
	cents := cluster.Centroids(pts, raw, rawK)
	for i, l := range labels {
		switch {
		case l < 0 || l >= k:
			t.Fatalf("label %d of point %d outside [0, %d)", l, i, k)
		case raw[i] != Noise && l != raw[i]:
			t.Errorf("point %d moved from cluster %d to %d", i, raw[i], l)
		case raw[i] == Noise:
			noise++
			for c := range cents {
				if cluster.SqDist(pts[i], cents[c]) < cluster.SqDist(pts[i], cents[l]) {
					t.Errorf("noise point %d went to cluster %d, cluster %d is nearer", i, l, c)
				}
			}
		}
	}
	if noise == 0 {
		t.Error("no noise to assign: the test data lost its outliers")
	}

	labels, k = GroupDBSCAN([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}, 0)
	if k != 1 || !reflect.DeepEqual(labels, []int{0, 0, 0, 0}) {
		t.Errorf("no cluster found: labels %v, k %d; want one catch-all cluster", labels, k)
	}
	if labels, k = GroupDBSCAN(nil, 0); len(labels) != 0 || k != 1 {
		t.Errorf("no vectors: labels %v, k %d", labels, k)
	}
}

// TestGroupDBSCANWorkerInvariance: a matcher grouped by the DBSCAN stage
// is the same built under GOMAXPROCS 1 and 8 (the -race run also covers
// the parallel eps estimate, sampled assignment and noise reassignment).
func TestGroupDBSCANWorkerInvariance(t *testing.T) {
	docs := corpusDocs(60, 17)
	build := func(procs int) *match.MR {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return match.NewMR("dbscan", docs, match.MRConfig{Group: GroupDBSCAN, Seed: 42})
	}
	serial, parallel := build(1), build(8)
	if !reflect.DeepEqual(serial.Centroids(), parallel.Centroids()) {
		t.Fatal("centroids differ between GOMAXPROCS 1 and 8")
	}
	for q := 0; q < 10; q++ {
		if sr, pr := serial.Match(q, 5), parallel.Match(q, 5); !reflect.DeepEqual(sr, pr) {
			t.Fatalf("query %d: serial %+v != parallel %+v", q, sr, pr)
		}
	}
}

// TestFullVectors: the Eq 5 half then the Eq 6 half, 28 elements, as the
// ablation's "full Eq5+6 vectors" row groups by.
func TestFullVectors(t *testing.T) {
	d := segment.NewDoc(docA)
	v := FullVectors(d, 1, 3)
	if len(v) != 2*int(cm.NumFeatures) {
		t.Fatalf("%d elements, want %d", len(v), 2*cm.NumFeatures)
	}
	if want := cm.WithinSegmentWeights(d.Range(1, 3)); !reflect.DeepEqual(v[:cm.NumFeatures], want) {
		t.Errorf("first half %v, want Eq 5's %v", v[:cm.NumFeatures], want)
	}
}
