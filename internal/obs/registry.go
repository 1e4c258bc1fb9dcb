package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Registry holds every registered metric. Registration happens at
// package init time of the instrumented packages and is mutex-guarded;
// the metric handles themselves are lock-free, so the registry is never
// touched on a record path. handles maps each registered name to its
// metric handle, which is what lets the GetOrNew constructors hand back
// an existing instrument instead of panicking — the sharding layer
// creates per-shard instruments at Group construction time, and two
// groups in one process (tests, a rebuild) legitimately share names.
type Registry struct {
	mu       sync.Mutex
	handles  map[string]any
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	spans    []*Span
}

// Default is the process-wide registry every NewCounter/NewGauge/
// NewCountHistogram/NewSpan registers into.
var Default = &Registry{handles: make(map[string]any)}

// register adds a metric under a unique name. It panics on duplicates:
// metric names are compile-time constants of the instrumented packages,
// so a collision is a programming error, not runtime input. Dynamically
// named instruments (per-shard labels) go through getOrRegister instead.
func (r *Registry) register(name string, handle any, add func(*Registry)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.handles[name]; taken {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.handles[name] = handle
	add(r)
}

// getOrRegister returns the handle already registered under name, or —
// when the name is free — registers and returns the handle produced by
// make. The caller asserts the handle's kind and panics on mismatch
// (reusing a name across metric kinds is the same programming error New*
// rejects).
func (r *Registry) getOrRegister(name string, make func() any, add func(*Registry, any)) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, taken := r.handles[name]; taken {
		return h
	}
	h := make()
	r.handles[name] = h
	add(r, h)
	return h
}

// Snapshot is a point-in-time view of the whole registry, shaped for
// JSON (the GET /metrics payload). Counter values are monotone across
// snapshots; histogram/span bucket counts are monotone per bucket and
// internally consistent (see HistogramSnapshot).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      map[string]HistogramSnapshot `json:"spans"`
}

// Snapshot captures every registered metric. Safe to call concurrently
// with recording and with registration.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := r.counters[:len(r.counters):len(r.counters)]
	gauges := r.gauges[:len(r.gauges):len(r.gauges)]
	hists := r.hists[:len(r.hists):len(r.hists)]
	spans := r.spans[:len(r.spans):len(r.spans)]
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
		Spans:      make(map[string]HistogramSnapshot, len(spans)),
	}
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range hists {
		s.Histograms[h.name] = h.Snapshot()
	}
	for _, sp := range spans {
		s.Spans[sp.hist.name] = sp.hist.Snapshot()
	}
	return s
}

// MarshalJSON renders the snapshot with sorted keys (encoding/json
// already sorts map keys; this method only exists to keep the output
// format a deliberate, documented contract).
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type plain Snapshot // avoid recursion
	return json.Marshal(plain(s))
}

// SummaryLines renders a human-readable digest of the snapshot — one
// line per metric, sorted by name — for log output (cmd/experiments
// prints it after the report).
func (s Snapshot) SummaryLines() []string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("counter %-32s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("gauge   %-32s %d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("hist    %-32s count=%d mean=%.1f p50=%.1f p99=%.1f p999=%.1f", name, h.Count, h.Mean, h.P50, h.P99, h.P999))
	}
	for name, h := range s.Spans {
		lines = append(lines, fmt.Sprintf("span    %-32s count=%d mean=%s p50=%s p99=%s p999=%s total=%s",
			name, h.Count, fmtNS(h.Mean), fmtNS(h.P50), fmtNS(h.P99), fmtNS(h.P999), fmtNS(float64(h.Sum))))
	}
	sortLinesByName(lines)
	return lines
}

// fmtNS renders a nanosecond quantity with an adaptive unit.
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func sortLinesByName(lines []string) {
	sort.Slice(lines, func(i, j int) bool { return lines[i][8:] < lines[j][8:] })
}
