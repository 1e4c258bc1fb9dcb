package obs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestMergeMatchesCombinedStream is the federation exactness property:
// merging the per-shard snapshots of N independent sample streams
// bucket-wise must equal — bit for bit, including every interpolated
// quantile — the snapshot of one histogram that observed the combined
// stream. This is what makes the coordinator's ?scope=fleet histograms
// trustworthy rather than approximate.
func TestMergeMatchesCombinedStream(t *testing.T) {
	withEnabled(t)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 1))
		nShards := 2 + rng.Intn(5)
		combined := newHistogram(fmt.Sprintf("test.merge.combined.%d", trial), DurationBounds())
		parts := make([]HistogramSnapshot, nShards)
		for s := 0; s < nShards; s++ {
			h := newHistogram(fmt.Sprintf("test.merge.part.%d.%d", trial, s), DurationBounds())
			n := rng.Intn(500) // some shards may record nothing
			for i := 0; i < n; i++ {
				// Log-uniform samples spanning the bucket range, with
				// occasional overflow-bucket outliers.
				v := int64(1) << uint(rng.Intn(36))
				v += rng.Int63n(v)
				h.Observe(v)
				combined.Observe(v)
			}
			parts[s] = h.Snapshot()
		}
		got := mergeHistogramSnapshots(parts...)
		want := combined.Snapshot()
		if got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("trial %d: merged count/sum = %d/%d, want %d/%d",
				trial, got.Count, got.Sum, want.Count, want.Sum)
		}
		for _, q := range [...][3]float64{
			{got.Mean, want.Mean, 0}, {got.P50, want.P50, 50},
			{got.P90, want.P90, 90}, {got.P99, want.P99, 99},
			{got.P999, want.P999, 99.9},
		} {
			if q[0] != q[1] {
				t.Fatalf("trial %d: merged q%.1f = %v, want %v (exact)", trial, q[2], q[0], q[1])
			}
		}
		if got.Max != want.Max {
			t.Fatalf("trial %d: merged max = %d, want %d", trial, got.Max, want.Max)
		}
		if len(got.Buckets) != len(want.Buckets) {
			t.Fatalf("trial %d: merged %d buckets, want %d", trial, len(got.Buckets), len(want.Buckets))
		}
		for i := range got.Buckets {
			if got.Buckets[i] != want.Buckets[i] {
				t.Fatalf("trial %d: bucket %d = %+v, want %+v", trial, i, got.Buckets[i], want.Buckets[i])
			}
		}
	}
}

func TestMergeEmptySnapshots(t *testing.T) {
	got := mergeHistogramSnapshots(HistogramSnapshot{}, HistogramSnapshot{})
	if got.Count != 0 || got.Sum != 0 || len(got.Buckets) != 0 {
		t.Fatalf("merge of empties not empty: %+v", got)
	}
}

// TestMergeSnapshotsSumsAndUnions pins the whole-registry merge: counters
// and gauges add per name, names missing on one side pass through, and
// histograms route through the bucket-wise merge.
func TestMergeSnapshotsSumsAndUnions(t *testing.T) {
	a := Snapshot{
		Counters:   map[string]int64{"x": 3, "only.a": 7},
		Gauges:     map[string]int64{"g": 10},
		Histograms: map[string]HistogramSnapshot{"h": {Count: 2, Sum: 30, Buckets: []BucketCount{{LE: 16, GT: 8, Count: 2}}}},
		Spans:      map[string]HistogramSnapshot{},
	}
	b := Snapshot{
		Counters:   map[string]int64{"x": 5, "only.b": 1},
		Gauges:     map[string]int64{"g": 4},
		Histograms: map[string]HistogramSnapshot{"h": {Count: 1, Sum: 100, Buckets: []BucketCount{{LE: 128, GT: 64, Count: 1}}}},
		Spans:      map[string]HistogramSnapshot{},
	}
	m := MergeSnapshots(a, b)
	if m.Counters["x"] != 8 || m.Counters["only.a"] != 7 || m.Counters["only.b"] != 1 {
		t.Fatalf("counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 14 {
		t.Fatalf("gauges = %v", m.Gauges)
	}
	h := m.Histograms["h"]
	if h.Count != 3 || h.Sum != 130 || len(h.Buckets) != 2 || h.Max != 128 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if !(h.P50 <= h.P90 && h.P90 <= h.P99 && h.P99 <= h.P999 && h.P999 <= float64(h.Max)) {
		t.Fatalf("merged quantiles not monotone: %+v", h)
	}
}

// TestP999Monotone drives a heavy-tailed stream and asserts the full
// quantile chain P50 ≤ P90 ≤ P99 ≤ P999 ≤ Max, including the overflow
// bucket (where P999 reports the largest finite bound).
func TestP999Monotone(t *testing.T) {
	withEnabled(t)
	h := newHistogram("test.hist.p999", DurationBounds())
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		v := int64(1000) + rng.Int63n(1_000_000)
		if rng.Intn(1000) == 0 {
			v = math.MaxInt64/2 + rng.Int63n(1000) // overflow-bucket outlier
		}
		h.Observe(v)
	}
	s := h.Snapshot()
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= float64(s.Max)) {
		t.Fatalf("quantile chain broken: p50=%v p90=%v p99=%v p999=%v max=%d",
			s.P50, s.P90, s.P99, s.P999, s.Max)
	}
	if s.P999 < s.P99 {
		t.Fatalf("p999 %v below p99 %v on heavy tail", s.P999, s.P99)
	}
}
