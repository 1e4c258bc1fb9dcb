// Package serve is the long-running HTTP face of the system: one
// Server over one Engine — a core.Pipeline (the PR 1 RWMutex serving
// layer, unsharded or sharded in process) or a fleet.Coordinator (the
// same collection scattered over shard servers) — exposed as JSON
// endpoints, with the obs registry scrapeable at runtime and
// net/http/pprof wired in. cmd/serve is the thin binary around it; the
// handler is separated here so tests drive it through httptest and
// Handler().ServeHTTP.
//
// Endpoints:
//
//	POST /related        {"doc_id": 3, "k": 5}  → top-k related posts;
//	                     {"explain": true} adds the Eq 7–9 score
//	                     decomposition to each result; a degraded fleet
//	                     adds partial_results + shards_missing
//	POST /add            {"text": "<raw post>"} → new document id (a
//	                     coordinator refuses: 501 read_only)
//	GET  /stats          the engine's self-description, plus the hygiene
//	                     blocks that are switched on
//	GET  /metrics        obs registry snapshot as JSON, or Prometheus
//	                     text exposition with ?format=prometheus or
//	                     Accept: text/plain; over a coordinator,
//	                     ?scope=fleet scrapes and merges every shard
//	GET  /debug/traces   recent request traces (sampled + slow-captured)
//	GET  /healthz        liveness probe
//	GET  /debug/pprof/   net/http/pprof profiles
//
// Every error body in this package is the typed envelope
// {"error": {"kind": "...", "message": "..."}} written by writeError;
// the kind strings ("bad_request", "unknown_doc", "overloaded",
// "fleet_unavailable", ...) are stable contract, so clients and the
// coordinator's transport switch on them without parsing prose.
//
// Each query and ingestion request passes through the server's
// obs.Tracer: rate-sampled or slow-captured requests record per-stage
// events (candidate-list widths, pool hits, merge sizes) retained in a
// bounded ring for /debug/traces. Every API request emits one
// structured JSON access-log line (log/slog) carrying the trace id,
// endpoint, status, latency, and the request's doc_id/k/result count.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/match"
	"repro/internal/obs"
)

// HTTP-surface metrics. The core.related/core.add spans time the
// engine operations themselves; these counters track the protocol
// layer around them (request counts by endpoint, error responses), the
// monotone quantities the history test asserts across /metrics scrapes.
var (
	ctrRelatedRequests = obs.NewCounter("http.related.requests")
	ctrExplainRequests = obs.NewCounter("http.related.explained")
	ctrPartial         = obs.NewCounter("http.fleet.related.partial")
	ctrAddRequests     = obs.NewCounter("http.add.requests")
	ctrMetricsRequests = obs.NewCounter("http.metrics.requests")
	ctrFleetScrapes    = obs.NewCounter("http.fleet.metrics.fleet_scope")
	ctrStatsRequests   = obs.NewCounter("http.stats.requests")
	ctrTraceRequests   = obs.NewCounter("http.traces.requests")
	ctrTracesStarted   = obs.NewCounter("http.traces.started")
	ctrErrors          = obs.NewCounter("http.errors")
)

// maxBodyBytes bounds request bodies; forum posts are kilobytes, so a
// megabyte leaves two orders of magnitude of headroom.
const maxBodyBytes = 1 << 20

// maxExplainTerms caps the per-cluster term breakdown in a /related
// explain response. Long posts touch hundreds of index terms whose
// contributions are individually negligible; the response keeps the
// largest by |contribution| and reports how many were elided (the
// cluster's Score always remains the full, unelided sum).
const maxExplainTerms = 16

// Config sets the server's observability policy. The zero value serves
// with no access log, no rate-sampled traces, and slow-query capture at
// threshold 0 — i.e. every query and add request is captured into the
// trace ring. That default suits tests (deterministic capture);
// cmd/serve passes explicit flags.
type Config struct {
	// Logger receives one structured access-log record per API request.
	// nil disables access logging.
	Logger *slog.Logger
	// TraceRate is the rate-sampling budget: up to this many requests per
	// second get a trace regardless of latency. 0 disables rate sampling.
	TraceRate int
	// SlowQuery is the always-capture threshold: every request at least
	// this slow is captured. 0 captures every request; negative disables
	// slow capture (leaving only rate-sampled traces).
	SlowQuery time.Duration
	// TraceRingSize bounds the retained traces (256 when 0).
	TraceRingSize int

	// CacheEntries bounds the Related result cache (and turns on
	// singleflight collapsing of concurrent identical queries with it).
	// Entries are keyed by (doc, k, explain, collection epoch); every
	// mutation advances the epoch, so no stale result survives an add.
	// 0 disables both layers — the default.
	CacheEntries int
	// MaxInflight bounds concurrently computing /related queries. The
	// next MaxQueued requests wait FIFO for a slot; beyond that the
	// server sheds with a typed 503 ({"error":{"kind":"overloaded"}},
	// Retry-After). 0 disables admission control — the default.
	MaxInflight int
	// MaxQueued is the admission wait-queue depth; meaningful only with
	// MaxInflight > 0. 0 sheds as soon as the in-flight limit is hit.
	MaxQueued int
}

// Engine is what a Server serves, whatever topology computes it.
// *core.Pipeline and *fleet.Coordinator both satisfy it.
type Engine interface {
	// Query answers the top-k related posts of docID, with the Eq 7–9
	// decomposition of every score when explain is set; a context-carried
	// obs.Trace records the stages of both forms.
	Query(ctx context.Context, docID, k int, explain bool) (match.Answer, error)
	// AddContext ingests one raw post and returns its document id.
	AddContext(ctx context.Context, text string) (int, error)
	// Epoch is the cache-invalidation epoch: an answer may be replayed
	// exactly as long as Epoch still returns the value it was computed at.
	Epoch() uint64
	// Describe returns the GET /stats body: the engine's own fields with
	// the server's hygiene blocks embedded last.
	Describe(hygiene cache.LayerStats) any
}

// fleetScraper is the optional Engine method behind /metrics?scope=fleet.
type fleetScraper interface {
	ScrapeFleet(ctx context.Context) ([]fleet.ShardScrape, obs.Snapshot)
}

// Server serves one engine over HTTP. All handlers are safe for
// arbitrary concurrency: they only touch the engine through its locked
// public surface, the obs registry through atomic snapshots, and the
// trace ring through atomic pointer loads.
type Server struct {
	eng Engine
	mux *http.ServeMux
	observer

	// The hygiene stages of /related (hygiene.go); nil means the knob is
	// off. The cache and singleflight come as a pair: collapsing works on
	// the same keys and exists to keep a thundering herd from computing
	// what the cache is about to hold.
	cache  *cache.ResultCache
	flight *cache.Flight
	admit  *cache.Admission
	// testHookCompute, when set, runs at the start of every compute:
	// after cache lookup, singleflight election, and admission granting a
	// slot. Tests use it to hold a leader in flight or to keep admission
	// slots occupied; production never sets it.
	testHookCompute func()
}

// New wraps an engine in an HTTP server. The pprof handlers are
// registered on the server's own mux (not http.DefaultServeMux), so
// binaries embedding several servers do not collide. The tracer is
// per-server for the same reason: tests run isolated trace rings side
// by side.
func New(eng Engine, cfg Config) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux(), observer: newObserver(cfg)}
	if cfg.CacheEntries > 0 {
		s.cache, s.flight = cache.New(cfg.CacheEntries), cache.NewFlight()
	}
	if cfg.MaxInflight > 0 {
		s.admit = cache.NewAdmission(cfg.MaxInflight, cfg.MaxQueued)
	}
	// The query and ingestion paths are traced; the read-only
	// introspection endpoints only get the access log (tracing a
	// /metrics scrape would fill the ring with noise).
	s.mux.HandleFunc("POST /related", s.observe("/related", true, s.handleRelated))
	s.mux.HandleFunc("POST /add", s.observe("/add", true, s.handleAdd))
	s.mux.HandleFunc("GET /metrics", s.observe("/metrics", false, s.handleMetrics))
	s.mux.HandleFunc("GET /stats", s.observe("/stats", false, s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.observe("/healthz", false, handleHealthz))
	s.mux.HandleFunc("GET /debug/traces", s.observe("/debug/traces", false, s.handleTraces))
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// RelatedRequest is the POST /related payload.
type RelatedRequest struct {
	DocID int `json:"doc_id"`
	K     int `json:"k"` // 0 → default 5, capped at 100
	// Explain adds the Eq 7–9 score decomposition to every result:
	// per-intention-cluster contributions and the term-level
	// tf·weight·idf products behind them.
	Explain bool `json:"explain,omitempty"`
}

// ClusterExplain is one intention cluster's contribution to a result's
// score. Score is the full contribution; Terms holds the largest term
// products (at most maxExplainTerms, by |contribution|; each is
// Contribution = QueryTF · Weight · IDF, Eq 9's summand over Eq 7/8's
// weight), and OmittedTerms counts elided ones — so
// Σ Terms[i].Contribution equals Score only when OmittedTerms is 0.
type ClusterExplain struct {
	Cluster      int                      `json:"cluster"`
	Score        float64                  `json:"score"`
	Terms        []match.TermContribution `json:"terms"`
	OmittedTerms int                      `json:"omitted_terms,omitempty"`
}

// RelatedResult is one entry of a RelatedResponse.
type RelatedResult struct {
	DocID   int              `json:"doc_id"`
	Score   float64          `json:"score"`
	Explain []ClusterExplain `json:"explain,omitempty"`
}

// RelatedResponse is the POST /related reply. The two partial-result
// fields are only ever set over a fleet coordinator: when a shard misses
// its deadline, PartialResults is true and ShardsMissing names it. Both
// are omitempty, so a healthy fleet response is byte-identical to a
// single-process response — the equivalence the smoke harness diffs.
type RelatedResponse struct {
	DocID          int             `json:"doc_id"`
	K              int             `json:"k"`
	Results        []RelatedResult `json:"results"`
	PartialResults bool            `json:"partial_results,omitempty"`
	ShardsMissing  []int           `json:"shards_missing,omitempty"`
}

// AddRequest is the POST /add payload: one raw post (may contain HTML).
type AddRequest struct {
	Text string `json:"text"`
}

// AddResponse is the POST /add reply.
type AddResponse struct {
	DocID int `json:"doc_id"`
}

// StatsResponse and FleetStatsResponse are the GET /stats replies over
// a pipeline and over a coordinator. Each engine describes itself, so
// the shapes live with the engines; these names are the serving
// contract's.
type (
	StatsResponse      = core.StatsReport
	FleetStatsResponse = fleet.StatsReport
)

// handleRelated is the one /related path, whatever the engine and
// whichever hygiene layers are on: decode, validate, then answer (see
// hygiene.go) and write the encoded entry.
func (s *Server) handleRelated(w http.ResponseWriter, r *http.Request) {
	ctrRelatedRequests.Inc()
	sc := w.(*statusWriter) // every handler of this package runs under observe
	info := &sc.info
	req, ok := decodeRelated(sc, r)
	if !ok {
		return
	}
	if req.K == 0 {
		req.K = 5
	}
	if req.K < 0 || req.K > 100 {
		writeError(w, reject(http.StatusBadRequest, "bad_request", "k must be in [1,100]"))
		return
	}
	info.docID, info.hasDoc = req.DocID, true
	info.k, info.hasK = req.K, true
	if req.Explain {
		ctrExplainRequests.Inc()
	}
	sc.mark(stageDecode)
	key := cache.Key{Doc: req.DocID, K: req.K, Explain: req.Explain, Epoch: s.eng.Epoch()}
	e, err := s.answer(r.Context(), key, sc)
	if err != nil {
		if sc.tr != nil && errors.Is(err, cache.ErrOverloaded) {
			sc.tr.Event("admit.shed")
		}
		writeError(w, err)
		return
	}
	if e.Partial {
		ctrPartial.Inc()
	}
	info.results, info.hasResults = e.Results, true
	writeRawJSON(w, e.Status, e.Body)
}

// relatedResponse puts an engine's answer into its wire form.
func relatedResponse(key cache.Key, ans match.Answer) RelatedResponse {
	resp := RelatedResponse{
		DocID: key.Doc, K: key.K,
		Results:        make([]RelatedResult, len(ans.Results)),
		PartialResults: ans.Partial, ShardsMissing: ans.Missing,
	}
	for i, res := range ans.Results {
		resp.Results[i] = RelatedResult{DocID: res.DocID, Score: res.Score}
		if key.Explain {
			resp.Results[i].Explain = explainClusters(ans.Explanations[i])
		}
	}
	return resp
}

// explainClusters converts one match.Explanation into its wire form,
// truncating each cluster's term list to the maxExplainTerms largest
// contributions by magnitude (ties broken by term, for determinism).
// The cluster Score is never truncated — it remains the exact
// contribution that sums to the served score.
func explainClusters(exp match.Explanation) []ClusterExplain {
	out := make([]ClusterExplain, len(exp.Clusters))
	for i, c := range exp.Clusters {
		ce := ClusterExplain{Cluster: c.Cluster, Score: c.Score}
		terms := append([]match.TermContribution(nil), c.Terms...)
		sort.Slice(terms, func(a, b int) bool {
			ca, cb := math.Abs(terms[a].Contribution), math.Abs(terms[b].Contribution)
			if ca != cb {
				return ca > cb
			}
			return terms[a].Term < terms[b].Term
		})
		if len(terms) > maxExplainTerms {
			ce.OmittedTerms = len(terms) - maxExplainTerms
			terms = terms[:maxExplainTerms]
		}
		ce.Terms = terms
		out[i] = ce
	}
	return out
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	ctrAddRequests.Inc()
	sc := w.(*statusWriter)
	text, ok := decodeAdd(sc, r)
	if !ok {
		return
	}
	if strings.TrimSpace(text) == "" {
		writeError(w, reject(http.StatusBadRequest, "bad_request", "text must be non-empty"))
		return
	}
	sc.mark(stageDecode)
	ctx := r.Context()
	if sc.tr != nil {
		ctx = obs.WithTrace(ctx, sc.tr)
	}
	id, err := s.eng.AddContext(ctx, text)
	sc.mark(stageEngine)
	if err != nil {
		writeError(w, err)
		return
	}
	sc.info.docID, sc.info.hasDoc = id, true
	body := appendAdd(make([]byte, 0, 32), id)
	sc.mark(stageEncode)
	writeRawJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ctrStatsRequests.Inc()
	writeJSON(w, http.StatusOK, s.eng.Describe(s.layerStats()))
}

// handleMetrics serves this process's registry, or — when asked for
// ?scope=fleet over an engine that can scrape one — the federated view.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if fs, ok := s.eng.(fleetScraper); ok && r.URL.Query().Get("scope") == "fleet" {
		handleFleetMetrics(w, r, fs)
		return
	}
	s.observer.handleMetrics(w, r)
}

// decodeJSON parses the request body into v, answering 400 (or 413 for
// an oversized body) itself. It reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, reject(http.StatusRequestEntityTooLarge, "too_large", "body exceeds 1MB"))
			return false
		}
		writeError(w, reject(http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error()))
		return false
	}
	return true
}

// writeJSON serializes v — two-space indent, one trailing newline — and
// writes it. encodeBody is the same serialization kept as bytes, which
// is what makes a cached /related body byte-for-byte a computed one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeBody(v)
	if err != nil { // a reply type json cannot marshal: a bug, not input
		status, body = http.StatusInternalServerError, []byte("{}\n")
	}
	writeRawJSON(w, status, body)
}

func encodeBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	return append(b, '\n'), err
}

// jsonContentType is every JSON response's Content-Type value, shared:
// the server copies the header map when the status is written.
var jsonContentType = []string{"application/json"}

// writeRawJSON writes a pre-encoded JSON body — on a /related or /add
// that was not a cache hit, under a Server-Timing header of the stages
// so far — and books what it took to the write stage.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	sc, _ := w.(*statusWriter)
	if sc != nil && sc.timed && !sc.hit {
		h["Server-Timing"] = []string{sc.serverTiming()}
	}
	w.WriteHeader(status)
	_, _ = w.Write(body) // client went away; nothing useful to do
	sc.mark(stageWrite)
}

// ErrorBody is the typed error envelope's payload.
type ErrorBody struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// reject builds a handler-level refusal (malformed or out-of-range
// input) in the same typed form engine and fleet errors arrive in.
func reject(status int, kind, msg string) error {
	return &fleet.RPCError{Status: status, Kind: kind, Msg: msg}
}

// writeError is the one function that writes an error body: the typed
// envelope under err's status and stable kind. A *fleet.RPCError — a
// refusal built by reject, a shard host's failure, the coordinator's
// fleet_unavailable — carries its own; the pipeline's unknown id,
// admission sheds (with the Retry-After clients back off on: sheds are
// immediate, so the hint is the smallest the header's integer form
// allows), and a context ending mid-request are mapped here.
func writeError(w http.ResponseWriter, err error) {
	ctrErrors.Inc()
	status, kind, msg := http.StatusInternalServerError, "internal", err.Error()
	var rpc *fleet.RPCError
	switch {
	case errors.As(err, &rpc):
		status, kind, msg = rpc.Status, rpc.Kind, rpc.Msg
		if status == 0 { // failed before any response: a gateway's problem
			status = http.StatusBadGateway
		}
		if kind == "" {
			kind = "internal"
		}
	case errors.Is(err, core.ErrUnknownDoc):
		status, kind = http.StatusNotFound, "unknown_doc"
	case errors.Is(err, cache.ErrOverloaded):
		status, kind = http.StatusServiceUnavailable, "overloaded"
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, context.DeadlineExceeded):
		status, kind = http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		status, kind = 499, "canceled" // nginx's client-closed-request
	}
	writeJSON(w, status, map[string]ErrorBody{"error": {Kind: kind, Message: msg}})
}
