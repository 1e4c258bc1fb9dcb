package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram over int64-valued observations
// (durations in nanoseconds, counts, sizes). Buckets are defined by a
// sorted slice of inclusive upper bounds; one implicit overflow bucket
// catches everything above the last bound. Observation is two atomic
// adds; there is no lock anywhere on the record path.
type Histogram struct {
	name   string
	bounds []int64 // sorted inclusive upper bounds; len(buckets) == len(bounds)+1
	counts []atomic.Int64
	sum    atomic.Int64
}

// newHistogram creates and registers a histogram with the given
// inclusive upper bounds (which must be sorted ascending). The bounds
// slice is retained.
func newHistogram(name string, bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be sorted ascending: " + name)
		}
	}
	h := &Histogram{name: name, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	Default.register(name, h, func(r *Registry) { r.hists = append(r.hists, h) })
	return h
}

// GetOrNewCountHistogram returns the countBounds histogram registered
// under name, creating and registering it if the name is free — the
// histogram counterpart of GetOrNewCounter for dynamically named
// (per-shard) instruments. It panics if the name is taken by a
// different metric kind.
func GetOrNewCountHistogram(name string) *Histogram {
	got := Default.getOrRegister(name,
		func() any {
			bounds := countBounds()
			return &Histogram{name: name, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		},
		func(r *Registry, h any) { r.hists = append(r.hists, h.(*Histogram)) })
	h, ok := got.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric name %q is registered as a different kind", name))
	}
	return h
}

// DurationBounds are the default latency bounds: exponential from 1µs
// to ~8.6s in powers of two (24 buckets plus overflow). They cover the
// paper's whole dynamic range — Fig 11(c) reports queries in the 100µs
// to 100ms band, and the offline build phases run seconds.
func DurationBounds() []int64 {
	bounds := make([]int64, 24)
	v := int64(1000) // 1µs in ns
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// countBounds are the default size bounds: exponential from 1 to 2^19
// in powers of two. They suit candidate-set sizes, heap sizes, and
// per-query list counts.
func countBounds() []int64 {
	bounds := make([]int64, 20)
	v := int64(1)
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// NewCountHistogram creates a histogram with countBounds.
func NewCountHistogram(name string) *Histogram {
	return newHistogram(name, countBounds())
}

// Observe records one value. It is a no-op while recording is disabled.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(v)
}

// bucket returns the index of the bucket v falls into, by binary search
// over the upper bounds.
func (h *Histogram) bucket(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// HistogramSnapshot is a consistent point-in-time view of a histogram.
// Count is derived from Buckets (never tracked separately), so
// Count == Σ Buckets[i].Count holds for every snapshot even while
// writers are recording — the property the serve history test asserts
// ("no torn snapshots"). Sum is read after the buckets; a value
// recorded between the two reads can make Mean drift by at most one
// observation, but never break the count/bucket identity.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	P999    float64       `json:"p999"`
	Max     int64         `json:"max_bound"` // upper bound of highest non-empty bucket
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket: the inclusive upper
// bound LE ("less or equal", math.MaxInt64 for the overflow bucket),
// the exclusive lower bound GT ("greater than", 0 for the first
// bucket), and the number of observations in it (non-cumulative). GT is
// carried so a consumer that only has the snapshot — the coordinator
// merging remote shard scrapes — can recompute interpolated quantiles
// exactly, without knowing the histogram's full bounds slice.
type BucketCount struct {
	LE    int64 `json:"le"`
	GT    int64 `json:"gt,omitempty"`
	Count int64 `json:"count"`
}

// Snapshot returns a consistent view of the histogram. Safe to call
// concurrently with Observe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, Sum: h.sum.Load()}
	if total == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(total)
	s.P50 = h.quantile(counts, total, 0.50)
	s.P90 = h.quantile(counts, total, 0.90)
	s.P99 = h.quantile(counts, total, 0.99)
	s.P999 = h.quantile(counts, total, 0.999)
	for i := len(counts) - 1; i >= 0; i-- {
		if counts[i] > 0 {
			s.Max = h.upper(i)
			break
		}
	}
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{LE: h.upper(i), GT: h.lower(i), Count: c})
		}
	}
	return s
}

// upper returns bucket i's inclusive upper bound (MaxInt64 for the
// overflow bucket).
func (h *Histogram) upper(i int) int64 {
	if i < len(h.bounds) {
		return h.bounds[i]
	}
	return math.MaxInt64
}

// lower returns bucket i's exclusive lower bound (0 below the first).
func (h *Histogram) lower(i int) int64 {
	if i == 0 {
		return 0
	}
	return h.bounds[i-1]
}

// quantile estimates the q-quantile (0 < q < 1) by locating the bucket
// containing the q·total-th observation and interpolating linearly
// inside it. The estimate is bounded by the bucket's bounds, so
// quantiles are always within the recorded range and monotone in q for
// a fixed counts slice.
func (h *Histogram) quantile(counts []int64, total int64, q float64) float64 {
	rank := float64(q * float64(total))
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) >= rank {
			lo, hi := h.lower(i), h.upper(i)
			if hi == math.MaxInt64 {
				// Overflow bucket has no finite width; report its lower
				// bound (the largest finite bound).
				return float64(lo)
			}
			frac := (rank - float64(prev)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return float64(lo) + float64(frac*float64(hi-lo))
		}
	}
	return float64(h.upper(len(counts) - 1))
}
