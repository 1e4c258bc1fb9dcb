package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// Test metrics are registered once for the whole package test binary —
// the registry forbids duplicate names, so tests share these handles.
var (
	testCounter = NewCounter("test.counter")
	testGauge   = NewGauge("test.gauge")
	testHist    = newHistogram("test.hist", []int64{10, 100, 1000})
	testSpan    = NewSpan("test.span")
)

func withEnabled(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(Disable)
}

func TestDisabledRecordingIsNoOp(t *testing.T) {
	Disable()
	before := testCounter.Value()
	testCounter.Inc()
	testCounter.Add(5)
	if got := testCounter.Value(); got != before {
		t.Fatalf("disabled counter moved: %d -> %d", before, got)
	}
	gBefore := testGauge.Value()
	testGauge.Set(99)
	testGauge.Add(1)
	if got := testGauge.Value(); got != gBefore {
		t.Fatalf("disabled gauge moved: %d -> %d", gBefore, got)
	}
	hBefore := testHist.Snapshot().Count
	testHist.Observe(5)
	if got := testHist.Snapshot().Count; got != hBefore {
		t.Fatalf("disabled histogram observed: %d -> %d", hBefore, got)
	}
	tm := testSpan.Start()
	if d := tm.Stop(); d != 0 {
		t.Fatalf("disabled span timing returned %v, want 0", d)
	}
}

func TestCounterMonotoneAndNegativeIgnored(t *testing.T) {
	withEnabled(t)
	before := testCounter.Value()
	testCounter.Add(3)
	testCounter.Add(-7) // ignored: counters are monotone by contract
	testCounter.Inc()
	if got := testCounter.Value(); got != before+4 {
		t.Fatalf("counter = %d, want %d", got, before+4)
	}
}

func TestGauge(t *testing.T) {
	withEnabled(t)
	testGauge.Set(42)
	testGauge.Add(-2)
	if got := testGauge.Value(); got != 40 {
		t.Fatalf("gauge = %d, want 40", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	withEnabled(t)
	h := newHistogram("test.hist.quant", []int64{10, 100, 1000})
	// 100 observations uniform in (0,10]: all land in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i%10 + 1))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	var bucketSum int64
	for _, b := range s.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if s.P50 <= 0 || s.P50 > 10 {
		t.Fatalf("p50 = %v, want in (0,10]", s.P50)
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= float64(s.Max)) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v p999=%v max=%d", s.P50, s.P90, s.P99, s.P999, s.Max)
	}
	if s.Max != 10 {
		t.Fatalf("max bound = %d, want 10", s.Max)
	}

	// Overflow bucket: observations above every bound.
	h.Observe(5000)
	s = h.Snapshot()
	if s.Max != math.MaxInt64 {
		t.Fatalf("max bound = %d, want MaxInt64 (overflow bucket)", s.Max)
	}
	if s.P99 > float64(math.MaxInt64) || s.P99 < 0 {
		t.Fatalf("p99 out of range: %v", s.P99)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	withEnabled(t)
	h := newHistogram("test.hist.interp", []int64{100})
	for i := 0; i < 100; i++ {
		h.Observe(50)
	}
	s := h.Snapshot()
	// All mass in [0,100]; interpolated p50 must be mid-bucket.
	if s.P50 < 25 || s.P50 > 75 {
		t.Fatalf("p50 = %v, want around 50", s.P50)
	}
	if s.Mean != 50 {
		t.Fatalf("mean = %v, want 50", s.Mean)
	}
}

func TestSpanRecordsDurations(t *testing.T) {
	withEnabled(t)
	before := testSpan.Snapshot().Count
	tm := testSpan.Start()
	time.Sleep(time.Millisecond)
	d := tm.Stop()
	if d < time.Millisecond {
		t.Fatalf("span duration %v < 1ms", d)
	}
	s := testSpan.Snapshot()
	if s.Count != before+1 {
		t.Fatalf("span count = %d, want %d", s.Count, before+1)
	}
	testSpan.Record(2 * time.Millisecond)
	if got := testSpan.Snapshot().Count; got != before+2 {
		t.Fatalf("span count after Record = %d, want %d", got, before+2)
	}
}

func TestStartAlwaysMeasuresWhileDisabled(t *testing.T) {
	Disable()
	countBefore := testSpan.Snapshot().Count
	tm := testSpan.StartAlways()
	time.Sleep(time.Millisecond)
	d := tm.Stop()
	if d < time.Millisecond {
		t.Fatalf("StartAlways duration %v < 1ms while disabled", d)
	}
	if got := testSpan.Snapshot().Count; got != countBefore {
		t.Fatalf("disabled StartAlways recorded into the histogram")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	NewCounter("test.counter")
}

// TestDuplicateNamePanicsAcrossKinds pins that uniqueness is enforced
// per name, not per metric kind: a gauge, histogram, or span reusing a
// counter's name is the same programming error.
func TestDuplicateNamePanicsAcrossKinds(t *testing.T) {
	for _, tc := range []struct {
		kind string
		new  func()
	}{
		{"gauge", func() { NewGauge("test.counter") }},
		{"histogram", func() { newHistogram("test.counter", []int64{1}) }},
		{"span", func() { NewSpan("test.counter") }},
		{"counter vs gauge", func() { NewCounter("test.gauge") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a taken name did not panic", tc.kind)
				}
			}()
			tc.new()
		}()
	}
	// The failed registrations must not have corrupted the registry: the
	// original metrics still snapshot under their names.
	snap := Default.Snapshot()
	if _, ok := snap.Counters["test.counter"]; !ok {
		t.Fatal("registry lost test.counter after duplicate registration attempts")
	}
	if _, ok := snap.Gauges["test.gauge"]; !ok {
		t.Fatal("registry lost test.gauge after duplicate registration attempts")
	}
}

func TestFmtNS(t *testing.T) {
	for _, tc := range []struct {
		ns   float64
		want string
	}{
		{0, "0ns"},                   // zero stays in the ns band
		{1, "1ns"},                   // sub-µs
		{999, "999ns"},               // just below the µs band
		{1000, "1.0µs"},              // µs band lower edge
		{1500, "1.5µs"},              //
		{999_999, "1000.0µs"},        // rounds within the µs band
		{1_000_000, "1.00ms"},        // ms band
		{999_999_999, "1000.00ms"},   // just below the s band
		{1_000_000_000, "1.00s"},     // >1s
		{8_600_000_000, "8.60s"},     // top of the DurationBounds range
		{123_456_789_000, "123.46s"}, // far above any bucket
	} {
		if got := fmtNS(tc.ns); got != tc.want {
			t.Errorf("fmtNS(%v) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

func TestSummaryLines(t *testing.T) {
	withEnabled(t)
	testCounter.Inc()
	testGauge.Set(7)
	testHist.Observe(50)
	testSpan.Record(3 * time.Millisecond)
	lines := Default.Snapshot().SummaryLines()
	if len(lines) == 0 {
		t.Fatal("no summary lines")
	}
	// One line per metric; each metric kind renders its own shape.
	var haveCounter, haveGauge, haveHist, haveSpan bool
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "counter ") && strings.Contains(l, "test.counter"):
			haveCounter = true
		case strings.HasPrefix(l, "gauge ") && strings.Contains(l, "test.gauge"):
			haveGauge = true
			if !strings.Contains(l, " 7") {
				t.Errorf("gauge line missing value: %q", l)
			}
		case strings.HasPrefix(l, "hist ") && strings.Contains(l, "test.hist"):
			haveHist = true
			for _, field := range []string{"count=", "mean=", "p50=", "p99="} {
				if !strings.Contains(l, field) {
					t.Errorf("hist line missing %s: %q", field, l)
				}
			}
		case strings.HasPrefix(l, "span ") && strings.Contains(l, "test.span"):
			haveSpan = true
			if !strings.Contains(l, "total=") || !strings.Contains(l, "ms") {
				t.Errorf("span line missing formatted durations: %q", l)
			}
		}
	}
	if !haveCounter || !haveGauge || !haveHist || !haveSpan {
		t.Fatalf("summary missing a metric kind (counter=%v gauge=%v hist=%v span=%v):\n%s",
			haveCounter, haveGauge, haveHist, haveSpan, strings.Join(lines, "\n"))
	}
	// Lines are sorted by metric name (the 8-column name field).
	for i := 1; i < len(lines); i++ {
		if lines[i][8:] < lines[i-1][8:] {
			t.Fatalf("summary lines not sorted by name:\n%s\n%s", lines[i-1], lines[i])
		}
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	withEnabled(t)
	testCounter.Inc()
	testHist.Observe(50)
	testSpan.Record(time.Millisecond)
	raw, err := json.Marshal(Default.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if _, ok := decoded.Counters["test.counter"]; !ok {
		t.Fatal("snapshot missing test.counter")
	}
	if _, ok := decoded.Spans["test.span"]; !ok {
		t.Fatal("snapshot missing test.span")
	}
	if len(Default.Snapshot().SummaryLines()) == 0 {
		t.Fatal("empty summary")
	}
}

// TestConcurrentSnapshotConsistency hammers one histogram from many
// goroutines while snapshotting, asserting every snapshot satisfies the
// count == Σ buckets identity and monotone counts — the "no torn
// snapshot" property the serve history test rechecks over HTTP.
func TestConcurrentSnapshotConsistency(t *testing.T) {
	withEnabled(t)
	h := newHistogram("test.hist.torn", DurationBounds())
	c := NewCounter("test.counter.torn")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				v = v*6364136223846793005 + 1442695040888963407
				h.Observe((v >> 33) & 0xFFFFF)
				c.Inc()
			}
		}(int64(w + 1))
	}
	var lastCount, lastCounter int64
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var bucketSum int64
		for _, b := range s.Buckets {
			bucketSum += b.Count
		}
		if bucketSum != s.Count {
			t.Fatalf("torn snapshot: bucket sum %d != count %d", bucketSum, s.Count)
		}
		if s.Count < lastCount {
			t.Fatalf("histogram count went backwards: %d -> %d", lastCount, s.Count)
		}
		lastCount = s.Count
		if cv := c.Value(); cv < lastCounter {
			t.Fatalf("counter went backwards: %d -> %d", lastCounter, cv)
		} else {
			lastCounter = cv
		}
		if s.Count > 0 && !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999) {
			t.Fatalf("quantiles not monotone under load: %v %v %v %v", s.P50, s.P90, s.P99, s.P999)
		}
	}
	close(stop)
	wg.Wait()
}
