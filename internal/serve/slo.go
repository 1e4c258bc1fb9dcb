package serve

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// sloLatency is the per-request latency objective: every request slower
// than it counts into its endpoint's slo.<endpoint>.breaches. A quarter
// second is an order of magnitude above the paper-scale query
// latencies, so breaches flag genuine stalls (lock convoys, degraded
// shards) rather than noise.
const sloLatency = 250 * time.Millisecond

// sloInstruments is one endpoint's SLO family:
//
//	slo.<endpoint>.latency    span of full request durations (P50…P999)
//	slo.<endpoint>.errors     5xx responses
//	slo.<endpoint>.breaches   requests slower than the objective
//
// Instruments are resolved once, when observe wraps the handler, so the
// per-request path is three lock-free records — no map lookups and no
// allocations, preserving the untraced hot path's zero-alloc contract.
type sloInstruments struct {
	latency  *obs.Span
	errors   *obs.Counter
	breaches *obs.Counter
}

// sloFor resolves the instrument family for an endpoint. GetOrNew
// constructors make this idempotent across the several servers (shard,
// coordinator, tests) that share one process registry.
func sloFor(endpoint string) sloInstruments {
	name := sloName(endpoint)
	return sloInstruments{
		latency:  obs.GetOrNewSpan("slo." + name + ".latency"),
		errors:   obs.GetOrNewCounter("slo." + name + ".errors"),
		breaches: obs.GetOrNewCounter("slo." + name + ".breaches"),
	}
}

// sloName flattens an endpoint path into a metric-name segment:
// "/related" → "related", "/internal/home" → "internal.home".
func sloName(endpoint string) string {
	return strings.ReplaceAll(strings.Trim(endpoint, "/"), "/", ".")
}

// record books one finished request against the SLO.
func (s sloInstruments) record(status int, dur time.Duration) {
	s.latency.Record(dur)
	if status >= http.StatusInternalServerError {
		s.errors.Inc()
	}
	if dur > sloLatency {
		s.breaches.Inc()
	}
}
