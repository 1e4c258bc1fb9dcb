package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Event("anything", N("k", 1)) // must not panic
	if tr.ID() != "" {
		t.Fatalf("nil trace ID = %q, want empty", tr.ID())
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(Background) = %v, want nil", got)
	}
	if got := TraceFrom(nil); got != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatalf("TraceFrom(nil) = %v, want nil", got)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tracer := NewTracer(TracerConfig{SlowQuery: 0})
	tr := tracer.Start(time.Now())
	if tr == nil {
		t.Fatal("SlowQuery=0 must start a trace for every request")
	}
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom returned %p, want %p", got, tr)
	}
}

func TestSlowCaptureThresholdZeroIsDeterministic(t *testing.T) {
	// SlowQuery=0: every request qualifies as slow, so every finished
	// trace must land in the ring — the acceptance criterion's
	// deterministic-capture configuration.
	tracer := NewTracer(TracerConfig{SlowQuery: 0})
	const reqs = 5
	for i := 0; i < reqs; i++ {
		tr := tracer.Start(time.Now())
		tr.Event("stage", N("i", int64(i)))
		if d := tracer.Finish(tr); d < 0 {
			t.Fatalf("negative duration %v", d)
		}
	}
	recs := tracer.Snapshot()
	if len(recs) != reqs {
		t.Fatalf("captured %d traces, want %d", len(recs), reqs)
	}
	// Most recent first.
	if recs[0].Events[0].Attrs[0].Int != reqs-1 {
		t.Fatalf("snapshot not most-recent-first: first record i=%d", recs[0].Events[0].Attrs[0].Int)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate trace id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Sampled {
			t.Fatalf("trace %s marked rate-sampled; it was captured as slow", r.ID)
		}
	}
}

func TestSlowCaptureDisabledAndThreshold(t *testing.T) {
	// Negative threshold, no sampling budget: no request is traced.
	tracer := NewTracer(TracerConfig{SlowQuery: -1})
	if tr := tracer.Start(time.Now()); tr != nil {
		t.Fatal("tracing disabled but Start returned a trace")
	}
	if d := tracer.Finish(nil); d != 0 {
		t.Fatalf("Finish(nil) = %v, want 0", d)
	}

	// A high threshold starts speculative traces but publishes none of
	// the fast ones.
	tracer = NewTracer(TracerConfig{SlowQuery: time.Hour})
	tr := tracer.Start(time.Now())
	if tr == nil {
		t.Fatal("armed slow capture must start a speculative trace")
	}
	tracer.Finish(tr)
	if recs := tracer.Snapshot(); len(recs) != 0 {
		t.Fatalf("fast request published %d traces, want 0", len(recs))
	}
}

func TestRateSamplingBudget(t *testing.T) {
	// PerSecond=3, slow capture off: at most 3 traces this second (the
	// loop finishes far inside one second; a second boundary mid-loop can
	// only lower the count below the assert threshold, so allow 3..6).
	tracer := NewTracer(TracerConfig{PerSecond: 3, SlowQuery: -1})
	granted := 0
	for i := 0; i < 50; i++ {
		if tr := tracer.Start(time.Now()); tr != nil {
			granted++
			tracer.Finish(tr)
		}
	}
	if granted == 0 || granted > 6 {
		t.Fatalf("rate sampler granted %d traces for budget 3/s", granted)
	}
	for _, r := range tracer.Snapshot() {
		if !r.Sampled {
			t.Fatalf("rate-sampled trace %s not marked sampled", r.ID)
		}
	}
}

func TestRingBounded(t *testing.T) {
	tracer := NewTracer(TracerConfig{SlowQuery: 0})
	const published = ringSize + 20
	for i := 0; i < published; i++ {
		tr := tracer.Start(time.Now())
		tr.Event("e", N("i", int64(i)))
		tracer.Finish(tr)
	}
	recs := tracer.Snapshot()
	if len(recs) != ringSize {
		t.Fatalf("ring holds %d records, want %d", len(recs), ringSize)
	}
	for j, r := range recs {
		if want := int64(published - 1 - j); r.Events[0].Attrs[0].Int != want {
			t.Fatalf("record %d holds i=%d, want %d (newest first)", j, r.Events[0].Attrs[0].Int, want)
		}
	}
}

func TestEventsMonotoneUnderConcurrency(t *testing.T) {
	// Concurrent recorders (the per-intention-cluster fan-out pattern):
	// the stored event sequence must be monotone in At because the
	// timestamp is taken under the trace lock.
	tracer := NewTracer(TracerConfig{SlowQuery: 0})
	tr := tracer.Start(time.Now())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Event("worker", N("w", int64(w)))
			}
		}(w)
	}
	wg.Wait()
	tracer.Finish(tr)
	recs := tracer.Snapshot()
	if len(recs) != 1 || len(recs[0].Events) != 8*200 {
		t.Fatalf("got %d records / %d events, want 1 / 1600", len(recs), len(recs[0].Events))
	}
	for i := 1; i < len(recs[0].Events); i++ {
		if recs[0].Events[i].At < recs[0].Events[i-1].At {
			t.Fatalf("events not monotone: event %d at %v after %v", i, recs[0].Events[i].At, recs[0].Events[i-1].At)
		}
	}
	if recs[0].DurationNS < int64(recs[0].Events[len(recs[0].Events)-1].At) {
		t.Fatalf("trace duration %d below last event offset", recs[0].DurationNS)
	}
}

func TestSnapshotConcurrentWithPublish(t *testing.T) {
	// Scrape the ring while writers publish: every record seen must be
	// complete (id set, duration non-negative, events monotone).
	tracer := NewTracer(TracerConfig{SlowQuery: 0})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr := tracer.Start(time.Now())
				tr.Event("a", N("x", 1))
				tr.Event("b")
				tracer.Finish(tr)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		for _, r := range tracer.Snapshot() {
			if r.ID == "" || r.DurationNS < 0 || len(r.Events) != 2 {
				t.Fatalf("torn trace record: %+v", r)
			}
			if r.Events[1].At < r.Events[0].At {
				t.Fatalf("events out of order in %s", r.ID)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestFinishClosingEventOnlyWhenPublished(t *testing.T) {
	// Published: the closing event is the trace's last, stamped with the
	// duration, and owns its attributes.
	tracer := NewTracer(TracerConfig{SlowQuery: 0})
	tr := tracer.Start(time.Now())
	tr.Event("work")
	attrs := []Attr{N("decode", 7)}
	d := tracer.Finish(tr, TraceEvent{Name: "summary", Attrs: attrs})
	attrs[0].Int = 99 // the caller's scratch is reused
	rec := tracer.Snapshot()[0]
	if last := rec.Events[len(rec.Events)-1]; len(rec.Events) != 2 || last.Name != "summary" || last.At != d || last.Attrs[0].Int != 7 || rec.DurationNS != int64(d) {
		t.Fatalf("published trace %+v after a %v request", rec, d)
	}

	// Dropped: nothing is kept, and the next request starts clean
	// whether or not it was handed the same Trace.
	tracer = NewTracer(TracerConfig{SlowQuery: time.Hour})
	for i := 0; i < 3; i++ {
		tr := tracer.Start(time.Now())
		if got := tr.Events(); len(got) != 0 {
			t.Fatalf("request %d starts with events %+v", i, got)
		}
		tr.Event("work", N("i", int64(i)))
		tracer.Finish(tr, TraceEvent{Name: "summary"})
	}
	if recs := tracer.Snapshot(); len(recs) != 0 {
		t.Fatalf("fast requests published %d traces", len(recs))
	}
}
