package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile (0 < q <= 1) of sorted: the
// smallest element with at least q·n elements at or below it. With no
// samples there is nothing to report, which reads 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// mean returns 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// windowBounds cuts n schedule positions into w windows of equal size
// by index (the last window takes the remainder): window i covers
// [bounds[i], bounds[i+1]).
func windowBounds(n, w int) []int {
	bounds := make([]int, w+1)
	for i := 0; i <= w; i++ {
		bounds[i] = i * (n / w)
	}
	bounds[w] = n
	return bounds
}

// lowerQuartile picks the quiet end of a set of per-window latencies:
// a disturbance from outside only ever adds latency, so three windows
// in four may be hit and the estimate still stands.
func lowerQuartile(windows []float64) float64 { return quantile(sortedCopy(windows), 0.25) }

// tailPercentile is the highest of the percentiles 99.9, 99, 95, 90
// that still leaves at least ten of n samples beyond it, or 0.5 (the
// median) when even P90 does not.
func tailPercentile(n int) float64 {
	for _, permille := range []int{999, 990, 950, 900} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 1000
		}
	}
	return 0.5
}

// tailWindows is how many windows (at most six) n samples can be cut
// into with every window still supporting a P99.
func tailWindows(n int) int {
	for w := 6; w > 1; w-- {
		if tailPercentile(n/w) >= 0.99 {
			return w
		}
	}
	return 1
}

// dueLatency is an open-loop request's latency: from the instant it was
// due on the schedule to the instant its reply was read, so a request
// that left 30 ms late and took 2 ms counts 32 ms.
func dueLatency(due, done time.Duration) time.Duration { return done - due }

// span is one bench-owned trace span: a timed call into one layer's
// public function. Parent is the id of the span it is nested in (-1 for
// a request's root), and all spans of one replayed operation share
// RequestID.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	RequestID int    `json:"request_id"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval covered by its direct children (overlapping
// children are counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	children := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for id, s := range byID {
		kids := children[id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[id] = (s.EndNS - s.StartNS) - covered
	}
	return self
}
