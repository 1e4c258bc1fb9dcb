package fleet

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// LocalTransport is the in-process Transport: endpoints are plain
// names mapped to Hosts, and deliveries happen synchronously before
// the call returns. It is the substrate of the fault-injection suite —
// wrap it in a Chaos with a VirtualClock and an entire degraded fleet
// runs deterministically on one goroutine — and of the -race stress
// test, where hosts come and go mid-flight.
type LocalTransport struct {
	mu    sync.RWMutex
	hosts map[string]*Host
}

// NewLocalTransport returns an empty in-process fleet.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{hosts: make(map[string]*Host)}
}

// AddHost serves h at endpoint.
func (t *LocalTransport) AddHost(endpoint string, h *Host) {
	t.mu.Lock()
	t.hosts[endpoint] = h
	t.mu.Unlock()
}

// RemoveHost kills the server at endpoint: subsequent calls fail like
// a refused connection.
func (t *LocalTransport) RemoveHost(endpoint string) {
	t.mu.Lock()
	delete(t.hosts, endpoint)
	t.mu.Unlock()
}

// localCall answers one RPC synchronously from the host at endpoint: a
// missing host fails like a refused connection, a canceled context
// delivers nothing (see the Transport contract).
func localCall[Resp any](t *LocalTransport, ctx context.Context, endpoint string, deliver func(*Resp, error), handle func(*Host) (*Resp, error)) {
	if ctx.Err() != nil {
		return
	}
	t.mu.RLock()
	h := t.hosts[endpoint]
	t.mu.RUnlock()
	if h == nil {
		deliver(nil, &RPCError{Kind: "dial", Msg: fmt.Sprintf("connect %s: connection refused", endpoint)})
		return
	}
	deliver(handle(h))
}

// Home implements Transport.
func (t *LocalTransport) Home(ctx context.Context, endpoint string, req *HomeRequest, deliver func(*HomeResponse, error)) {
	localCall(t, ctx, endpoint, deliver, func(h *Host) (*HomeResponse, error) { return h.HandleHome(req) })
}

// Probe implements Transport.
func (t *LocalTransport) Probe(ctx context.Context, endpoint string, req *ProbeRequest, deliver func(*ProbeResponse, error)) {
	localCall(t, ctx, endpoint, deliver, func(h *Host) (*ProbeResponse, error) { return h.HandleProbe(req) })
}

// Explain implements Transport.
func (t *LocalTransport) Explain(ctx context.Context, endpoint string, req *ExplainRequest, deliver func(*ExplainResponse, error)) {
	localCall(t, ctx, endpoint, deliver, func(h *Host) (*ExplainResponse, error) { return h.HandleExplain(req) })
}

// Meta implements Transport.
func (t *LocalTransport) Meta(ctx context.Context, endpoint string, deliver func(*Meta, error)) {
	localCall(t, ctx, endpoint, deliver, func(h *Host) (*Meta, error) { return h.Meta(), nil })
}

// Metrics implements Transport. In-process hosts share one registry, so
// each live endpoint reports the same process-wide snapshot — the
// federation caveat Host.MetricsSnapshot documents.
func (t *LocalTransport) Metrics(ctx context.Context, endpoint string, deliver func(*obs.Snapshot, error)) {
	localCall(t, ctx, endpoint, deliver, func(h *Host) (*obs.Snapshot, error) {
		s := h.MetricsSnapshot()
		return &s, nil
	})
}
