// Package obs is the reproduction's observability substrate: atomic
// counters, gauges, fixed-bucket latency histograms with quantile
// estimates, and lightweight spans, all recorded into a process-wide
// registry that can be snapshotted as JSON (the /metrics endpoint of
// cmd/serve, the end-of-run report of cmd/experiments).
//
// The paper's evaluation (Sec 9, Fig 11) is an accounting of where time
// goes across segmentation, grouping, and matching; this package makes
// that accounting a permanent runtime property instead of a one-off
// experiments report. The offline build records one span per phase
// (build.segment, build.vectorize, build.cluster, build.refine,
// build.index — the Fig 11(a)/(b) quantities) and the online hot path
// records per-query latency and size distributions (the Fig 11(c)
// quantity).
//
// Design constraints, in order:
//
//  1. Near-zero overhead when disabled. Recording is gated on a single
//     package-level atomic flag; a disabled Counter.Add or
//     Histogram.Observe is one atomic load and a branch, and a disabled
//     Span.Start returns a zero Timing without reading the clock. No
//     call allocates, enabled or not.
//  2. Race-safety. Queries record concurrently with Add; every mutable
//     cell is a sync/atomic value and registration is mutex-guarded.
//  3. Snapshot consistency. A histogram snapshot derives its count from
//     the bucket counts it actually read, so a scrape concurrent with
//     writers always sees count == Σ buckets and per-bucket counts that
//     are monotone across scrapes (no torn totals).
//
// Metrics are created once at package init time of the instrumented
// package (see the vars at the top of internal/match, internal/index,
// internal/core) and recorded into unconditionally; whether anything is
// written is decided by Enable/Disable.
package obs

import (
	"fmt"
	"sync/atomic"
)

// enabled gates all recording. Metric handles still exist and register
// while disabled — only the hot-path mutation is skipped.
var enabled atomic.Bool

// Enable turns on recording for every metric in the process.
// cmd/serve and cmd/experiments enable it at startup; libraries never
// toggle it.
func Enable() { enabled.Store(true) }

// Disable turns off recording. Already-recorded values remain readable.
func Disable() { enabled.Store(false) }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter creates and registers a counter in the default registry.
// Names must be unique process-wide; NewCounter panics on duplicates
// (metric creation is an init-time programming act, not runtime input).
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	Default.register(name, c, func(r *Registry) { r.counters = append(r.counters, c) })
	return c
}

// GetOrNewCounter returns the counter registered under name, creating
// and registering it if the name is free. It is the constructor for
// dynamically named instruments — per-shard labels like
// "shard.03.queries" — where several subsystem instances built at
// different times legitimately share one process-wide metric. It panics
// if the name is taken by a different metric kind.
func GetOrNewCounter(name string) *Counter {
	h := Default.getOrRegister(name,
		func() any { return &Counter{name: name} },
		func(r *Registry, h any) { r.counters = append(r.counters, h.(*Counter)) })
	c, ok := h.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric name %q is registered as a different kind", name))
	}
	return c
}

// Add increments the counter by n. It is a no-op while recording is
// disabled. Negative n is ignored: counters are monotone by contract
// (the serve history test asserts it across /metrics scrapes).
func (c *Counter) Add(n int64) {
	if !enabled.Load() || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous atomic value (e.g. current document count).
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge creates and registers a gauge in the default registry.
func NewGauge(name string) *Gauge {
	g := &Gauge{name: name}
	Default.register(name, g, func(r *Registry) { r.gauges = append(r.gauges, g) })
	return g
}

// Set stores v. It is a no-op while recording is disabled.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }
