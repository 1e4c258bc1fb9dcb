package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// The internal routes a shard server answers, one per RPC; Transport.Call
// takes one of them as its path. Home, probe and explain are POSTs of
// the wire request; meta and metrics are GETs with no request.
const (
	PathHome    = "/internal/home"     // HomeRequest → HomeResponse
	PathProbe   = "/internal/probe"    // ProbeRequest → ProbeResponse
	PathExplain = "/internal/explain"  // ExplainRequest → ExplainResponse
	PathMeta    = "/internal/meta"     // nil → Meta
	PathMetrics = "/internal/metricsz" // nil → obs.Snapshot
)

// Transport is how the coordinator reaches shard servers: one
// asynchronous call, in the shape of net/rpc's Client.Go. Call runs the
// RPC at path (one of the Path constants) on the server at endpoint,
// with req the wire request (nil for meta and metrics) and reply a
// pointer the caller allocated, fresh for each call, to the path's
// response type. The transport fills reply, then calls deliver(nil), or
// calls deliver with the failure. That shape admits three
// implementations with identical coordinator code above them:
//
//   - HTTPTransport: real network calls, deliver runs on a goroutine.
//   - fleettest.LocalTransport: in-process hosts, deliver runs
//     synchronously before the call returns.
//   - fleettest.Chaos: wraps either, rescheduling deliveries through the
//     Clock to script delays, errors, and drops deterministically.
//
// Contract: deliver is called at most once per call ("drop" faults
// simply never deliver — the coordinator's per-attempt deadline is the
// only recovery, exactly as with a real black-holed packet), and the
// caller reads reply only after deliver(nil). Transports should stop
// work when ctx is done but need not deliver a cancellation error; the
// coordinator never blocks on a specific call. deliver may run on any
// goroutine; the coordinator's inbox serializes.
type Transport interface {
	Call(ctx context.Context, endpoint, path string, req, reply any, deliver func(error))
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

// HTTPTransport reaches shard servers over HTTP: one request per call,
// JSON bodies, responses decoded off a shared client. Build one with
// NewHTTPTransport.
type HTTPTransport struct {
	// Client issues the requests.
	Client *http.Client
}

// NewHTTPTransport returns a transport with a connection-pooled client
// suitable for a small fleet: every leg of every query hits the same
// few endpoints. The client sets no timeout of its own; the coordinator
// cancels each call's context at its attempt deadline.
func NewHTTPTransport() *HTTPTransport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 32
	return &HTTPTransport{Client: &http.Client{Transport: tr}}
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
	resp, err := t.Client.Do(hr)
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

// Call implements Transport: it runs roundTrip on its own goroutine.
func (t *HTTPTransport) Call(ctx context.Context, endpoint, path string, req, reply any, deliver func(error)) {
	go func() { deliver(t.roundTrip(ctx, endpoint+path, req, reply)) }()
}
