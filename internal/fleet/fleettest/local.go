package fleettest

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// LocalTransport is the in-process fleet.Transport: endpoints are plain
// names mapped to Hosts, and deliveries happen synchronously before
// the call returns. It is the substrate of the fault-injection suite —
// wrap it in a Chaos with a VirtualClock and an entire degraded fleet
// runs deterministically on one goroutine — and of the -race stress
// test, where hosts come and go mid-flight.
type LocalTransport struct {
	mu    sync.RWMutex
	hosts map[string]*fleet.Host
}

// NewLocalTransport returns an empty in-process fleet.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{hosts: make(map[string]*fleet.Host)}
}

// AddHost serves h at endpoint.
func (t *LocalTransport) AddHost(endpoint string, h *fleet.Host) {
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

// Call implements fleet.Transport: it answers synchronously from the
// host at endpoint. A missing host fails like a refused connection, a
// canceled context delivers nothing (see the Transport contract).
func (t *LocalTransport) Call(ctx context.Context, endpoint, path string, req, reply any, deliver func(error)) {
	if ctx.Err() != nil {
		return
	}
	t.mu.RLock()
	h := t.hosts[endpoint]
	t.mu.RUnlock()
	if h == nil {
		deliver(&fleet.RPCError{Kind: "dial", Msg: fmt.Sprintf("connect %s: connection refused", endpoint)})
		return
	}
	deliver(answer(h, path, req, reply))
}

// answer runs the RPC at path on h and fills reply: LocalTransport's
// in-process dispatch. Registry instruments are process-global, so every
// in-process host's metrics are the same shared snapshot; real fleets
// run one host per process.
func answer(h *fleet.Host, path string, req, reply any) error {
	switch path {
	case fleet.PathHome:
		return fill(reply.(*fleet.HomeResponse))(h.HandleHome(req.(*fleet.HomeRequest)))
	case fleet.PathProbe:
		return fill(reply.(*fleet.ProbeResponse))(h.HandleProbe(req.(*fleet.ProbeRequest)))
	case fleet.PathExplain:
		return fill(reply.(*fleet.ExplainResponse))(h.HandleExplain(req.(*fleet.ExplainRequest)))
	case fleet.PathMeta:
		*reply.(*fleet.Meta) = *h.Meta()
	case fleet.PathMetrics:
		*reply.(*obs.Snapshot) = obs.Default.Snapshot()
	default:
		panic("fleettest: no RPC at " + path)
	}
	return nil
}

// fill copies a handler's response into reply when it succeeded.
func fill[T any](reply *T) func(*T, error) error {
	return func(v *T, err error) error {
		if err == nil {
			*reply = *v
		}
		return err
	}
}
