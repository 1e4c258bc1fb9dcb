package serve

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
}

func newObserver(cfg Config) observer {
	return observer{
		log: cfg.Logger,
		tracer: obs.NewTracer(obs.TracerConfig{
			PerSecond: cfg.TraceRate,
			SlowQuery: cfg.SlowQuery,
		}),
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

// Stages names the steps of a /related or /add request, in order: the
// one vocabulary for where a request's time went. The stage clock below,
// the Server-Timing header of every such response but a cache hit's
// (the header costs a microsecond end to end, 4 % of a hit:
// EXPERIMENTS.md, PR 27) and the closing serve.stages event of its trace
// are generated from it. bench/ reads the same request from outside:
// serve.related_us / serve.add_us span every stage, core.related_us /
// core.add_us the engine stage, serve.self_us the rest.
var Stages = [...]string{"decode", "cache", "singleflight", "admission", "engine", "encode", "write"}

const (
	stageDecode = iota
	stageCache
	stageSingleflight
	stageAdmission
	stageEngine
	stageEncode
	stageWrite
)

// statusWriter is the one per-request object: the ResponseWriter the
// handler writes through (it remembers the response status for the
// access log), the handler's reqInfo, the request's trace and the stage
// clock. observe recycles them through writerPool, so nothing may keep
// one past the handler's return.
type statusWriter struct {
	http.ResponseWriter
	status int
	info   reqInfo

	tr     *obs.Trace
	timed  bool // a /related or /add: stage clock, Server-Timing, trace
	hit    bool // answered from the result cache: no Server-Timing
	start  time.Time
	last   time.Duration              // offset of the latest mark
	stages [len(Stages)]time.Duration // time booked to each stage
	attrs  [len(Stages)]obs.Attr      // the serve.stages payload
	buf    []byte                     // scratch: the request body, then the header value
}

var writerPool = sync.Pool{New: func() any { return &statusWriter{buf: make([]byte, 0, 512)} }}

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

// mark books the time since the previous mark to stage. Nil-safe, and a
// no-op on the untimed endpoints.
func (w *statusWriter) mark(stage int) {
	if w == nil || !w.timed {
		return
	}
	now := time.Since(w.start)
	w.stages[stage] += now - w.last
	w.last = now
}

// serverTiming renders the stages booked so far as a Server-Timing
// value, "decode;dur=0.004, engine;dur=0.212" in milliseconds. A reply
// before the first mark is a refusal, and decode's.
func (w *statusWriter) serverTiming() string {
	if w.last == 0 {
		w.mark(stageDecode)
	}
	b := w.buf[:0]
	for i, d := range w.stages {
		if d <= 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ", "...)
		}
		b = append(append(b, Stages[i]...), ";dur="...)
		b = strconv.AppendFloat(b, d.Seconds()*1e3, 'f', 3, 64)
	}
	w.buf = b
	return string(b)
}

// stageEvent is the trace's closing event: nanoseconds by stage, in the
// writer's own array — the tracer copies it if it keeps the trace.
func (w *statusWriter) stageEvent() obs.TraceEvent {
	attrs := w.attrs[:0]
	for i, d := range w.stages {
		if d > 0 {
			attrs = append(attrs, obs.N(Stages[i], int64(d)))
		}
	}
	return obs.TraceEvent{Name: "serve.stages", Attrs: attrs}
}

// reqInfo carries per-request facts from a handler back to the access
// log: which document was asked about, with what k, and how many
// results came back. Handlers fill it through their statusWriter; the
// set flags distinguish "not applicable to this endpoint" from real
// values (a 404 for a negative doc_id still logs the id asked for).
type reqInfo struct {
	docID, k, results        int
	hasDoc, hasK, hasResults bool
}

// observe wraps a handler with the request-scoped observability: a
// pooled statusWriter, a Trace from the server's tracer (for traced
// endpoints; the handler hands it to the engine), the endpoint's SLO
// bookkeeping (latency span, 5xx counter, objective-breach counter), and
// one structured access-log record on the way out. The SLO instruments
// and the log handler are resolved here, at wrap time; the record goes
// to the handler directly, which skips the source-line lookup
// (runtime.Callers) of Logger.LogAttrs.
func (o *observer) observe(endpoint string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	slo := sloFor(endpoint)
	var logTo slog.Handler
	if o.log != nil { // the endpoint attribute, first in every record, is rendered once
		logTo = o.log.Handler().WithAttrs([]slog.Attr{slog.String("endpoint", endpoint)})
	}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := writerPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.timed, sw.start = w, traced, time.Now()
		info := &sw.info
		var traceID string
		if traced {
			if sw.tr = o.tracer.Start(sw.start); sw.tr != nil && logTo != nil {
				traceID = sw.tr.ID() // now: Finish may recycle the trace
			}
		}
		h(sw, r)
		dur := o.tracer.Finish(sw.tr, sw.stageEvent())
		if sw.tr != nil {
			ctrTracesStarted.Inc()
		} else {
			dur = time.Since(sw.start)
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		slo.record(sw.status, dur)
		if logTo != nil && logTo.Enabled(r.Context(), slog.LevelInfo) {
			attrs := make([]slog.Attr, 0, 8)
			attrs = append(attrs,
				slog.Int("status", sw.status),
				slog.Int64("latency_ns", int64(dur)),
			)
			if traceID != "" {
				attrs = append(attrs, slog.String("trace_id", traceID))
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
			rec := slog.NewRecord(sw.start.Add(dur), slog.LevelInfo, "request", 0)
			rec.AddAttrs(attrs...)
			_ = logTo.Handle(r.Context(), rec) // as Logger does: a failed log write is not the request's
		}
		*sw = statusWriter{buf: sw.buf[:0]}
		writerPool.Put(sw)
	}
}
