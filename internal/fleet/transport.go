package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Transport is how the coordinator reaches shard servers. It is
// deliberately asynchronous — each call arranges for deliver to be
// invoked at most once, later, with the response or an error — because
// that shape admits three implementations with identical coordinator
// code above them:
//
//   - HTTPTransport: real network calls, deliver runs on a goroutine.
//   - LocalTransport: in-process hosts, deliver runs synchronously
//     before the call returns.
//   - Chaos: wraps either, rescheduling deliveries through the Clock to
//     script delays, errors, and drops deterministically.
//
// Contract: deliver is called at most once per call ("drop" faults
// simply never deliver — the coordinator's per-attempt deadline is the
// only recovery, exactly as with a real black-holed packet). Transports
// should stop work when ctx is done but need not deliver a cancellation
// error; the coordinator never blocks on a specific call. deliver may
// run on any goroutine; the coordinator's inbox serializes.
type Transport interface {
	// Home runs a query's home leg on the server at endpoint.
	Home(ctx context.Context, endpoint string, req *HomeRequest, deliver func(*HomeResponse, error))
	// Probe runs a sibling scan on the server at endpoint.
	Probe(ctx context.Context, endpoint string, req *ProbeRequest, deliver func(*ProbeResponse, error))
	// Explain fetches term-level contribution breakdowns.
	Explain(ctx context.Context, endpoint string, req *ExplainRequest, deliver func(*ExplainResponse, error))
	// Meta fetches a server's self-description.
	Meta(ctx context.Context, endpoint string, deliver func(*Meta, error))
	// Metrics fetches a server's raw observability snapshot — the
	// federated-scrape leg behind the coordinator's /metrics?scope=fleet.
	Metrics(ctx context.Context, endpoint string, deliver func(*obs.Snapshot, error))
}

// RPCError is a typed failure from a shard server. Status carries the
// HTTP status (or 0 for pre-response failures); Kind is the server's
// machine-readable error code when it sent one.
type RPCError struct {
	Status int
	Kind   string
	Msg    string
}

// Error implements error.
func (e *RPCError) Error() string {
	if e.Kind != "" {
		return fmt.Sprintf("fleet: rpc %s (status %d): %s", e.Kind, e.Status, e.Msg)
	}
	return fmt.Sprintf("fleet: rpc status %d: %s", e.Status, e.Msg)
}

// ErrUnknownDoc is the typed "document not on this server" failure —
// permanent for the attempt, and mapped to the public 404.
var ErrUnknownDoc = &RPCError{Status: http.StatusNotFound, Kind: "unknown_doc", Msg: "document not found"}

// ErrEpochMismatch is raised coordinator-side when a reply's snapshot
// epoch disagrees with the fleet's: the server holds a different build
// or topology, and its lists must not be merged. Transient from the
// retry loop's point of view — a replica on the right snapshot may
// still answer.
var ErrEpochMismatch = errors.New("fleet: reply from a different snapshot epoch")

// IsTransient reports whether an attempt failure is worth retrying or
// failing over: network-level errors, 5xx statuses, and epoch
// mismatches are; 4xx responses (bad request, unknown document) mean
// every retry would fail identically.
func IsTransient(err error) bool {
	var rpc *RPCError
	if errors.As(err, &rpc) {
		return rpc.Status == 0 || rpc.Status >= 500
	}
	return true
}

// HTTPTransport reaches shard servers over HTTP: one POST per leg, JSON
// bodies, responses decoded off a shared client. The zero value uses
// http.DefaultClient.
type HTTPTransport struct {
	// Client issues the requests; http.DefaultClient when nil. Callers
	// running fleets at scale should set one with a tuned
	// MaxIdleConnsPerHost — every leg of every query hits the same few
	// endpoints.
	Client *http.Client
}

// NewHTTPTransport returns a transport with a connection-pooled client
// suitable for a small fleet.
func NewHTTPTransport() *HTTPTransport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 32
	return &HTTPTransport{Client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// serverError is the error-body shape internal endpoints send (the same
// {"error": {...}} envelope as the public surface).
type serverError struct {
	Error struct {
		Kind string `json:"kind"`
		Msg  string `json:"message"`
	} `json:"error"`
}

// roundTrip POSTs req as JSON to url (or GETs when req is nil) and
// decodes the response into out, translating non-2xx statuses into
// *RPCError.
func (t *HTTPTransport) roundTrip(ctx context.Context, url string, req, out any) error {
	var hr *http.Request
	var err error
	if req == nil {
		hr, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	} else {
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(req); err != nil {
			return &RPCError{Kind: "encode", Msg: err.Error()}
		}
		hr, err = http.NewRequestWithContext(ctx, http.MethodPost, url, &body)
		if hr != nil {
			hr.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return &RPCError{Kind: "request", Msg: err.Error()}
	}
	resp, err := t.client().Do(hr)
	if err != nil {
		return &RPCError{Kind: "dial", Msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var se serverError
		if json.Unmarshal(raw, &se) == nil && se.Error.Kind != "" {
			return &RPCError{Status: resp.StatusCode, Kind: se.Error.Kind, Msg: se.Error.Msg}
		}
		return &RPCError{Status: resp.StatusCode, Msg: string(raw)}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &RPCError{Kind: "decode", Msg: err.Error()}
	}
	return nil
}

// httpCall runs one RPC on its own goroutine — POST req as JSON to url,
// or GET when req is nil — and delivers the decoded reply or the error.
func httpCall[Resp any](t *HTTPTransport, ctx context.Context, url string, req any, deliver func(*Resp, error)) {
	go func() {
		var out Resp
		if err := t.roundTrip(ctx, url, req, &out); err != nil {
			deliver(nil, err)
			return
		}
		deliver(&out, nil)
	}()
}

// Home implements Transport.
func (t *HTTPTransport) Home(ctx context.Context, endpoint string, req *HomeRequest, deliver func(*HomeResponse, error)) {
	httpCall(t, ctx, endpoint+"/internal/home", req, deliver)
}

// Probe implements Transport.
func (t *HTTPTransport) Probe(ctx context.Context, endpoint string, req *ProbeRequest, deliver func(*ProbeResponse, error)) {
	httpCall(t, ctx, endpoint+"/internal/probe", req, deliver)
}

// Explain implements Transport.
func (t *HTTPTransport) Explain(ctx context.Context, endpoint string, req *ExplainRequest, deliver func(*ExplainResponse, error)) {
	httpCall(t, ctx, endpoint+"/internal/explain", req, deliver)
}

// Meta implements Transport.
func (t *HTTPTransport) Meta(ctx context.Context, endpoint string, deliver func(*Meta, error)) {
	httpCall(t, ctx, endpoint+"/internal/meta", nil, deliver)
}

// Metrics implements Transport.
func (t *HTTPTransport) Metrics(ctx context.Context, endpoint string, deliver func(*obs.Snapshot, error)) {
	httpCall(t, ctx, endpoint+"/internal/metricsz", nil, deliver)
}
