// The fleet-facing parts of the serving layer. ShardServer exposes one
// fleet.Host's internal probe surface over HTTP; the public surface of a
// fleet is the package's one Server over a fleet.Coordinator, which
// also answers the federated /metrics?scope=fleet below. ShardServer
// reuses the observe middleware, so shard processes get the same access
// logs, trace rings, and /metrics as every other server.
//
// Shard server endpoints (internal, consumed by the coordinator):
//
//	POST /internal/home     home leg: resolve probes + scan own partition
//	POST /internal/probe    sibling leg: scan frozen probes
//	POST /internal/explain  term-level Eq 7–9 breakdowns
//	GET  /internal/meta     topology self-description + snapshot epoch
//	GET  /internal/metricsz raw obs snapshot for the federated scrape
//	GET  /metrics, /healthz, /debug/traces
package serve

import (
	"fmt"
	"net/http"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Shard-surface request counters.
var (
	ctrShardHome    = obs.NewCounter("http.shard.home.requests")
	ctrShardProbe   = obs.NewCounter("http.shard.probe.requests")
	ctrShardExplain = obs.NewCounter("http.shard.explain.requests")
	ctrShardMeta    = obs.NewCounter("http.shard.meta.requests")
	ctrShardScrapes = obs.NewCounter("http.shard.metricsz.requests")
)

// ShardServer serves one fleet.Host's internal probe surface.
type ShardServer struct {
	host *fleet.Host
	mux  *http.ServeMux
	observer
}

// NewShardServer wraps a host in its HTTP surface. The host publishes
// its request-flagged remote traces through the server's tracer, so a
// shard's /debug/traces shows the shard-local view of the same
// distributed requests the coordinator stitches end to end.
func NewShardServer(h *fleet.Host, cfg Config) *ShardServer {
	s := &ShardServer{host: h, mux: http.NewServeMux(), observer: newObserver(cfg)}
	h.SetTracer(s.tracer)
	s.mux.HandleFunc("POST "+fleet.PathHome, s.observe(fleet.PathHome, false, hostRPC(ctrShardHome, h.HandleHome)))
	s.mux.HandleFunc("POST "+fleet.PathProbe, s.observe(fleet.PathProbe, false, hostRPC(ctrShardProbe, h.HandleProbe)))
	s.mux.HandleFunc("POST "+fleet.PathExplain, s.observe(fleet.PathExplain, false, hostRPC(ctrShardExplain, h.HandleExplain)))
	s.mux.HandleFunc("GET "+fleet.PathMeta, s.observe(fleet.PathMeta, false, s.handleMeta))
	s.mux.HandleFunc("GET "+fleet.PathMetrics, s.observe(fleet.PathMetrics, false, s.handleMetricsz))
	s.mux.HandleFunc("GET /metrics", s.observe("/metrics", false, s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.observe("/healthz", false, handleHealthz))
	s.mux.HandleFunc("GET /debug/traces", s.observe("/debug/traces", false, s.handleTraces))
	return s
}

// Handler returns the shard server's root handler.
func (s *ShardServer) Handler() http.Handler { return s.mux }

// hostRPC is the handler of one internal RPC: decode the request, let
// the host answer, write the reply or the typed error.
func hostRPC[Req, Resp any](requests *obs.Counter, handle func(*Req) (*Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		var req Req
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := handle(&req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *ShardServer) handleMeta(w http.ResponseWriter, r *http.Request) {
	ctrShardMeta.Inc()
	writeJSON(w, http.StatusOK, s.host.Meta())
}

// handleMetricsz is the federated-scrape leg: always the raw JSON
// snapshot (no content negotiation), because its one consumer is the
// coordinator's merge, which needs the exact bucket structure.
func (s *ShardServer) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	ctrShardScrapes.Inc()
	writeJSON(w, http.StatusOK, obs.Default.Snapshot())
}

// FleetMetricsResponse is GET /metrics?scope=fleet: every shard's raw
// snapshot scraped in parallel, the exact bucket-wise merge of the
// successes, and explicit failure markers for shards that could not be
// scraped (a dead shard shows up as an Err on its ShardScrape entry,
// never as silently missing series).
type FleetMetricsResponse struct {
	Scope  string              `json:"scope"`
	Shards int                 `json:"shards"`
	Fleet  obs.Snapshot        `json:"fleet"`
	Scrape []fleet.ShardScrape `json:"scrape"`
}

// handleFleetMetrics answers the federated form. The Prometheus
// exposition writes the fleet-merged series unprefixed (so dashboards
// built against a single process keep working), then each shard's own
// series under a fleet_shardNN_ prefix, led by a fleet_shardNN_up gauge
// marking scrape success — the per-shard failure marker in text form.
func handleFleetMetrics(w http.ResponseWriter, r *http.Request, fs fleetScraper) {
	ctrMetricsRequests.Inc()
	ctrFleetScrapes.Inc()
	scrapes, merged := fs.ScrapeFleet(r.Context())
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = merged.WritePrometheus(w)
		for _, sc := range scrapes {
			up := 0
			if sc.Err == "" {
				up = 1
			}
			prefix := fmt.Sprintf("fleet_shard%02d_", sc.Shard)
			fmt.Fprintf(w, "# TYPE %sup gauge\n%sup %d\n", prefix, prefix, up)
			if sc.Snapshot != nil {
				_ = sc.Snapshot.WritePrometheusPrefixed(w, prefix)
			}
		}
		return
	}
	writeJSON(w, http.StatusOK, FleetMetricsResponse{
		Scope:  "fleet",
		Shards: len(scrapes),
		Fleet:  merged,
		Scrape: scrapes,
	})
}
