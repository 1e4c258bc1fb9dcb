package obs

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped half of the observability layer. The
// registry metrics answer "how fast is the system on aggregate"; a
// Trace answers "why was *this* query slow": one ordered record of what
// a single request did — which stages ran, how wide each
// per-intention-cluster candidate list was, whether the accumulator pool
// hit — with monotonic timestamps. Traces are created per request by a
// Tracer (sampling + slow-query capture policy), threaded through the
// call tree via context.Context at the serve boundary and as a plain
// *Trace below it, and published into a bounded lock-free ring that
// GET /debug/traces snapshots.
//
// Cost model: the untraced path is a nil-pointer check per hook — no
// clock read, no allocation (core's TestRelatedAllocations gates
// this). The traced path is NOT rare: with slow capture armed, which is
// cmd/serve's default (-trace-slow 100ms), every request carries a
// speculative trace that Finish drops unless the request was sampled or
// slow, so what a trace costs is paid per request. Measured by
// BenchmarkSpeculativeTrace (one CPU, a clock read ≈ 25–45 ns here): a
// cache hit's trace (one event) cost 310 ns and 2 allocations, a
// computed /related's (sixteen events) 1.8 µs and 6, before PR 27;
// 180 ns and 1.05 µs, no allocation, since — Start takes the caller's
// clock read instead of two of its own, and a dropped trace goes back
// to the tracer's pool with its event slice, so only the published
// ones (a sample a second, and the slow) are ever allocated. What is
// left is the clock read and the lock of each Event.

// Attr is one key/value annotation of a trace event. Values are kept as
// int64 or string (the two things the pipeline records: counts,
// durations, names) so events marshal to flat JSON.
type Attr struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Int int64  `json:"int,omitempty"`
}

// A is a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Str: value} }

// N is an integer attribute.
func N(key string, value int64) Attr { return Attr{Key: key, Int: value} }

// TraceEvent is one timestamped step of a traced request. At is the
// offset from the trace's start; events are stored in the order they
// were recorded, and because the timestamp is taken under the trace's
// lock, At is non-decreasing across the stored sequence even when
// events arrive from concurrent goroutines (the per-intention-cluster
// fan-out records from its workers).
type TraceEvent struct {
	Name  string        `json:"name"`
	At    time.Duration `json:"at_ns"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Trace is one request's event record. It is created by Tracer.Start,
// carried via WithTrace/TraceFrom across the serve boundary and as a
// nil-able pointer below it, and becomes immutable once Tracer.Finish
// publishes it. A nil *Trace is valid everywhere and records nothing.
type Trace struct {
	id      uint64
	start   time.Time
	sampled bool // chosen by the rate sampler → always published

	mu       sync.Mutex
	events   []TraceEvent
	duration time.Duration // set by Finish; 0 while in flight
}

// Event records one named step with optional attributes. Safe for
// concurrent use; a nil receiver is a no-op (the untraced fast path).
// The timestamp is taken while holding the trace's lock so the stored
// event sequence is monotone in At.
func (t *Trace) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{Name: name, At: time.Since(t.start), Attrs: attrs})
	t.mu.Unlock()
}

// ID returns the trace's process-unique identifier, formatted as hex.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return strconv.FormatUint(t.id, 16)
}

// Events returns a copy of the events recorded so far, in record order
// (monotone At). The fleet host uses it to ship a remote child trace's
// events back in the RPC reply; a nil receiver returns nil.
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// NewTrace returns a standalone trace that starts now and is not
// attached to any Tracer ring. The fleet host opens one per
// remote-requested trace when it has no local tracer to publish into;
// the caller reads the events back with Events.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), sampled: true}
}

// TraceRecord is the published, immutable form of a finished trace —
// the GET /debug/traces payload element.
type TraceRecord struct {
	ID         string       `json:"id"`
	Start      time.Time    `json:"start"`
	DurationNS int64        `json:"duration_ns"`
	Sampled    bool         `json:"sampled"` // rate-sampled (false → captured as slow)
	Events     []TraceEvent `json:"events"`
}

// TracerConfig sets a Tracer's capture policy.
type TracerConfig struct {
	// PerSecond is the rate-sampling budget: up to this many requests per
	// wall-clock second get a trace regardless of their latency. 0
	// disables rate sampling.
	PerSecond int
	// SlowQuery is the always-capture threshold: every request whose
	// duration reaches it is published, even outside the sampling budget.
	// 0 captures every request (deterministic capture — the serve
	// history test's configuration); negative disables slow capture.
	SlowQuery time.Duration
}

// ringSize bounds a Tracer's retained finished traces.
const ringSize = 256

// Tracer decides which requests get a Trace and retains the finished
// ones in a bounded lock-free ring. The zero Tracer is unusable; build
// one with NewTracer. One Tracer serves one HTTP server (it is not a
// registry global: tests run isolated tracers side by side).
type Tracer struct {
	cfg    TracerConfig
	nextID atomic.Uint64

	// Rate-sampler state: the current wall-clock second and the number of
	// traces granted in it. The reset race between two requests observing
	// a fresh second is benign — the budget is approximate by design.
	winSec   atomic.Int64
	winCount atomic.Int64

	// ring holds the most recent finished traces. Publication is one
	// atomic counter increment to claim a slot plus one atomic pointer
	// store — no lock on either the publish or the snapshot side.
	ring     []atomic.Pointer[Trace]
	ringNext atomic.Uint64

	// pool recycles the traces Finish did not publish.
	pool sync.Pool
}

// NewTracer builds a tracer with the given policy.
func NewTracer(cfg TracerConfig) *Tracer {
	return &Tracer{cfg: cfg, ring: make([]atomic.Pointer[Trace], ringSize)}
}

// Start returns a Trace for a request that began at now (the caller's
// one clock read, and the sampler's second) if the policy wants to
// observe it, or nil when it should run untraced. A trace is started
// when the rate sampler has budget this second, or — speculatively —
// when slow-query capture is armed (the trace is then only published if
// the request turns out slow; see Finish).
func (tr *Tracer) Start(now time.Time) *Trace {
	sampled := false
	if tr.cfg.PerSecond > 0 {
		sec := now.Unix()
		if tr.winSec.Load() != sec {
			tr.winSec.Store(sec)
			tr.winCount.Store(0)
		}
		sampled = tr.winCount.Add(1) <= int64(tr.cfg.PerSecond)
	}
	if !sampled && tr.cfg.SlowQuery < 0 {
		return nil
	}
	// A recycled trace is reset without its lock, on purpose: nothing may
	// still hold a trace Finish dropped, and plain writes are what lets
	// the race detector catch a writer that does
	// (serve.TestRecycledTracesStress runs every engine this way).
	t, _ := tr.pool.Get().(*Trace)
	if t == nil { // sized once: a cache hit records two events, a computed /related under twenty
		t = &Trace{events: make([]TraceEvent, 0, 24)}
	}
	t.id, t.start, t.sampled, t.duration = tr.nextID.Add(1), now, sampled, 0
	return t
}

// StartForced returns a new Trace unconditionally, bypassing the rate
// sampler — the path for requests that arrive with an explicit trace
// flag already set by an upstream process (the coordinator's scatter
// marks its shard RPCs). Forced traces are always published by Finish.
func (tr *Tracer) StartForced() *Trace {
	return &Trace{id: tr.nextID.Add(1), start: time.Now(), sampled: true}
}

// Finish completes a trace and publishes it into the ring if the policy
// keeps it: rate-sampled traces always, speculative traces only when
// the request's duration reached the slow-query threshold. A published
// trace ends with the closing events, stamped with the duration and
// given copies of their attributes — a request summary that costs
// nothing when the trace is dropped. A dropped trace is recycled: the
// caller must not touch t again. Returns the request duration (0 for a
// nil trace); call it at most once per trace.
func (tr *Tracer) Finish(t *Trace, closing ...TraceEvent) time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.start)
	if t.sampled || (tr.cfg.SlowQuery >= 0 && d >= tr.cfg.SlowQuery) {
		t.mu.Lock()
		for _, ev := range closing {
			t.events = append(t.events, TraceEvent{Name: ev.Name, At: d, Attrs: slices.Clone(ev.Attrs)})
		}
		t.duration = d
		t.mu.Unlock()
		slot := (tr.ringNext.Add(1) - 1) % uint64(len(tr.ring))
		tr.ring[slot].Store(t)
		return d
	}
	clear(t.events) // drop the attribute slices
	t.events = t.events[:0]
	tr.pool.Put(t)
	return d
}

// Snapshot returns the retained finished traces, most recent first.
// Safe to call concurrently with Start/Finish: each published trace is
// immutable, and the atomic pointer loads see either a complete trace
// or an older complete one — never a partially written record.
func (tr *Tracer) Snapshot() []TraceRecord {
	n := len(tr.ring)
	next := tr.ringNext.Load()
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recently claimed slot.
		slot := (next - 1 - uint64(i)) % uint64(n)
		t := tr.ring[slot].Load()
		if t == nil {
			continue
		}
		t.mu.Lock()
		rec := TraceRecord{
			ID:         t.ID(),
			Start:      t.start,
			DurationNS: int64(t.duration),
			Sampled:    t.sampled,
			Events:     append([]TraceEvent(nil), t.events...),
		}
		t.mu.Unlock()
		out = append(out, rec)
	}
	return out
}

// traceKey is the context key WithTrace stores under. An unexported
// zero-size type: Value lookups with it never allocate.
type traceKey struct{}

// WithTrace returns a context carrying the trace. The serve layer calls
// it once per traced request; everything below extracts the trace once
// (TraceFrom) and passes the pointer explicitly.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil when the request is
// untraced (including ctx == nil and context.Background()). The nil
// result flows through every instrumentation hook as a no-op.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
