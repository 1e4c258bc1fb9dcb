package obs

import (
	"testing"
	"time"
)

// The disabled-path benchmarks are the acceptance evidence for the
// "near-zero overhead when no sink is attached" requirement: every
// disabled operation must be ~1ns and 0 allocs/op (run with -benchmem).

var (
	benchCounter = NewCounter("bench.counter")
	benchHist    = newDurationHistogram("bench.hist")
	benchSpan    = NewSpan("bench.span")
)

func BenchmarkCounterDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(int64(i))
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSpan.Start().Stop()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSpan.Start().Stop()
	}
}

func BenchmarkSpanRecordEnabled(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSpan.Record(time.Microsecond)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	Enable()
	defer Disable()
	for i := 0; i < 1000; i++ {
		benchHist.Observe(int64(i) * 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := Default.Snapshot(); len(s.Histograms) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkSpeculativeTrace is what every request pays for tracing
// under cmd/serve's defaults (-trace-rate 1 -trace-slow 100ms): a trace
// started speculatively, events recorded into it (one on a cache hit,
// sixteen on a computed /related), and Finish dropping it because the
// request was neither sampled nor slow. trace.go's cost model quotes it.
func BenchmarkSpeculativeTrace(b *testing.B) {
	for _, events := range []int{1, 16} {
		b.Run(map[int]string{1: "hit", 16: "miss"}[events], func(b *testing.B) {
			tracer := NewTracer(TracerConfig{PerSecond: 1, SlowQuery: 100 * time.Millisecond})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := tracer.Start(time.Now())
				for e := 0; e < events; e++ {
					tr.Event("stage")
				}
				tracer.Finish(tr)
			}
		})
	}
}

// newDurationHistogram creates a histogram with DurationBounds.
func newDurationHistogram(name string) *Histogram {
	return newHistogram(name, DurationBounds())
}
