package main

import (
	"reflect"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"median of ten is the fifth", ten, 0.5, 5},
		{"p90 of ten is the ninth", ten, 0.9, 9},
		{"p99 of ten is the last", ten, 0.99, 10},
		{"p25 of ten is the third", ten, 0.25, 3},
		{"tiny q clamps to the first", ten, 0.0001, 1},
		{"q of 1 is the last", ten, 1, 10},
		{"single sample", []float64{7}, 0.99, 7},
		{"median of three", []float64{1, 2, 9}, 0.5, 2},
	} {
		if got := quantile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: quantile(%v, %v) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestWindowBounds(t *testing.T) {
	for _, c := range []struct {
		n, w int
		want []int
	}{
		{12, 3, []int{0, 4, 8, 12}},
		{14, 3, []int{0, 4, 8, 14}}, // the last window takes the remainder
		{6, 6, []int{0, 1, 2, 3, 4, 5, 6}},
		{2, 4, []int{0, 0, 0, 0, 2}}, // fewer positions than windows: one window holds them all
	} {
		if got := windowBounds(c.n, c.w); !reflect.DeepEqual(got, c.want) {
			t.Errorf("windowBounds(%d, %d) = %v, want %v", c.n, c.w, got, c.want)
		}
	}
}

func TestLowerQuartileOfWindows(t *testing.T) {
	// One window in six was hit by a neighbour: the lower quartile
	// ignores it.
	latency := []float64{8.1, 8.0, 31.5, 8.3, 8.2, 8.4}
	if got := lowerQuartile(latency); got != 8.1 {
		t.Errorf("lowerQuartile(%v) = %v, want 8.1", latency, got)
	}
	if got := lowerQuartile([]float64{3, 1, 2}); got != 1 {
		t.Errorf("lower quartile of three windows = %v, want the lowest", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100_000, 0.999},
		{10_000, 0.999},
		{9_999, 0.99},
		{1_000, 0.99},
		{999, 0.95},
		{720, 0.95}, // 36 beyond P95, 7 beyond P99
		{200, 0.95},
		{199, 0.90},
		{100, 0.90},
		{99, 0.5},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailWindows(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{30_000, 6}, {6_000, 6}, {5_999, 5}, {3_500, 3}, {2_000, 2}, {1_999, 1}, {10, 1},
	} {
		if got := tailWindows(c.n); got != c.want {
			t.Errorf("tailWindows(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestDueLatency(t *testing.T) {
	due := 100 * time.Millisecond
	sent := due + 30*time.Millisecond // left 30 ms late
	done := sent + 2*time.Millisecond // answered in 2 ms
	if got := dueLatency(due, done); got != 32*time.Millisecond {
		t.Errorf("a request sent 30 ms late with a 2 ms reply counts %v, want 32ms", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, StartNS: 30, EndNS: 60}, // overlaps span 1: 10–60 is covered once
		{ID: 3, Parent: 2, StartNS: 35, EndNS: 45},
		{ID: 4, Parent: 0, StartNS: 90, EndNS: 120}, // runs past its parent: clipped at 100
		{ID: 5, Parent: -1, StartNS: 200, EndNS: 250},
	}
	want := map[int]int64{
		0: 100 - 50 - 10,
		1: 30,
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 50,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestBestThroughput(t *testing.T) {
	sec := time.Second
	op := func(sent, done time.Duration) sample { return sample{ok: true, sent: sent, done: done} }
	// Four positions, two parts. The first round answers the first part in
	// one second and the second part, whose last request fails, in two;
	// the second round takes two seconds and half a second.
	rounds := [][]sample{
		{op(0, sec/2), op(sec/4, sec), op(sec, 2*sec), {sent: 2 * sec, done: 3 * sec}},
		{op(0, sec), op(sec, 2*sec), op(2*sec, 2*sec+sec/4), op(2*sec+sec/8, 2*sec+sec/2)},
		{op(0, sec/8)}, // stopped short of either part's end: counts for neither
	}
	// Best rates: 2 answers a second, then 4; 2 positions each.
	if got, want := bestThroughput(rounds, 2), 4/(2/2.0+2/4.0); got != want {
		t.Errorf("bestThroughput = %v, want %v", got, want)
	}
	if got, want := bestThroughput(rounds[:1], 1), 1.0; got != want {
		t.Errorf("one round in one part: %v, want 3 answers in 3 s", got)
	}
	if got := bestThroughput(nil, 4); got != 0 {
		t.Errorf("throughput of no rounds = %v, want 0", got)
	}
	if got := bestThroughput([][]sample{{{sent: 0, done: sec}}}, 1); got != 0 {
		t.Errorf("throughput of nothing but failures = %v, want 0", got)
	}
}

func TestBestPerPosition(t *testing.T) {
	msec := time.Millisecond
	read := func(lat time.Duration) sample { return sample{kind: opRelated, ok: true, due: msec, done: msec + lat} }
	add := func(lat time.Duration) sample { return sample{kind: opAdd, ok: true, due: 0, done: lat} }
	rounds := [][]sample{
		{read(9 * msec), add(3 * msec), read(40 * msec), read(5 * msec)},
		{read(2 * msec), add(1 * msec), {kind: opRelated, ok: false, done: msec / 2}}, // cut short, and its third request failed
		{read(4 * msec), add(2 * msec), read(7 * msec), {kind: opRelated, ok: false}},
	}
	if got, want := bestPerPosition(rounds, opRelated), []float64{2, 7, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("best /related per position = %v, want %v", got, want)
	}
	if got, want := bestPerPosition(rounds, opAdd), []float64{1}; !reflect.DeepEqual(got, want) {
		t.Errorf("best /add per position = %v, want %v", got, want)
	}
	if got := bestPerPosition(nil, opAdd); got != nil {
		t.Errorf("best per position of no rounds = %v, want none", got)
	}
}

func TestWindowQuantilesSkipFailuresAndOtherKinds(t *testing.T) {
	msec := time.Millisecond
	samples := []sample{
		{kind: opRelated, ok: true, due: 0, done: 2 * msec},
		{kind: opAdd, ok: true, due: 0, done: 90 * msec},
		{kind: opRelated, ok: false, due: 0, done: 70 * msec},
		{kind: opRelated, ok: true, due: 10 * msec, done: 14 * msec},
	}
	if got, want := windowQuantiles(samples, opRelated, 2, 0.5), []float64{2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowQuantiles = %v, want %v", got, want)
	}
}
