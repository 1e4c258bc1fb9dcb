package serve

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// observer is the request-scoped observability shared by both servers
// of this package (Server and ShardServer): a per-server tracer feeding
// the /debug/traces ring, one structured access-log record per API
// request, and the three operational endpoints every process answers
// the same way. It is embedded, so servers call s.observe(...) and
// register s.handleMetrics / s.handleTraces directly.
type observer struct {
	log    *slog.Logger
	tracer *obs.Tracer
	slo    time.Duration
}

func newObserver(cfg Config) observer {
	slo := cfg.SLOLatency
	if slo == 0 {
		slo = defaultSLOLatency
	}
	return observer{
		log: cfg.Logger,
		tracer: obs.NewTracer(obs.TracerConfig{
			PerSecond: cfg.TraceRate,
			SlowQuery: cfg.SlowQuery,
			RingSize:  cfg.TraceRingSize,
		}),
		slo: slo,
	}
}

// handleMetrics serves this process's registry snapshot: JSON, or the
// Prometheus text exposition when wantsPrometheus says so.
func (o *observer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ctrMetricsRequests.Inc()
	snap := obs.Default.Snapshot()
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = snap.WritePrometheus(w) // client went away; nothing useful to do
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// wantsPrometheus decides the /metrics representation: an explicit
// ?format=prometheus (or ?format=json) query parameter wins; otherwise
// an Accept header preferring text/plain — what Prometheus's scraper
// sends — selects the text exposition, and everything else gets JSON.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain")
}

// TracesResponse is the GET /debug/traces reply, most recent first.
type TracesResponse struct {
	Traces []obs.TraceRecord `json:"traces"`
}

func (o *observer) handleTraces(w http.ResponseWriter, r *http.Request) {
	ctrTraceRequests.Inc()
	writeJSON(w, http.StatusOK, TracesResponse{Traces: o.tracer.Snapshot()})
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statusWriter remembers the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// reqInfo carries per-request facts from a handler back to the access
// log: which document was asked about, with what k, and how many
// results came back. Handlers fill it through the request context; the
// set flags distinguish "not applicable to this endpoint" from real
// values (a 404 for a negative doc_id still logs the id asked for).
type reqInfo struct {
	docID, k, results        int
	hasDoc, hasK, hasResults bool
}

type reqInfoKey struct{}

// infoFrom returns the middleware-installed reqInfo, or nil for a
// handler invoked outside observe (direct tests).
func infoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// observe wraps a handler with the request-scoped observability: a
// Trace from the server's tracer (for traced endpoints) carried via the
// context into the pipeline, the endpoint's SLO bookkeeping (latency
// span, 5xx counter, objective-breach counter), and one structured
// access-log record on the way out. The SLO instruments are resolved
// here, at wrap time, so the request path stays allocation-free.
func (o *observer) observe(endpoint string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	slo := sloFor(endpoint, o.slo)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		info := &reqInfo{}
		ctx := context.WithValue(r.Context(), reqInfoKey{}, info)
		var tr *obs.Trace
		if traced {
			if tr = o.tracer.Start(); tr != nil {
				ctx = obs.WithTrace(ctx, tr)
			}
		}
		start := time.Now()
		h(sw, r.WithContext(ctx))
		dur := time.Since(start)
		if tr != nil {
			dur = o.tracer.Finish(tr)
			ctrTracesStarted.Inc()
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		slo.record(sw.status, dur)
		if o.log != nil {
			attrs := make([]slog.Attr, 0, 8)
			attrs = append(attrs,
				slog.String("endpoint", endpoint),
				slog.Int("status", sw.status),
				slog.Int64("latency_ns", int64(dur)),
			)
			if id := tr.ID(); id != "" {
				attrs = append(attrs, slog.String("trace_id", id))
			}
			if info.hasDoc {
				attrs = append(attrs, slog.Int("doc_id", info.docID))
			}
			if info.hasK {
				attrs = append(attrs, slog.Int("k", info.k))
			}
			if info.hasResults {
				attrs = append(attrs, slog.Int("results", info.results))
			}
			o.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	}
}
