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

// Call implements Transport: it answers synchronously from the host at
// endpoint. A missing host fails like a refused connection, a canceled
// context delivers nothing (see the Transport contract).
func (t *LocalTransport) Call(ctx context.Context, endpoint, path string, req, reply any, deliver func(error)) {
	if ctx.Err() != nil {
		return
	}
	t.mu.RLock()
	h := t.hosts[endpoint]
	t.mu.RUnlock()
	if h == nil {
		deliver(&RPCError{Kind: "dial", Msg: fmt.Sprintf("connect %s: connection refused", endpoint)})
		return
	}
	deliver(answer(h, path, req, reply))
}

// answer runs the RPC at path on h and fills reply. Registry instruments
// are process-global, so every in-process host's metrics are the same
// shared snapshot; real fleets run one host per process.
func answer(h *Host, path string, req, reply any) error {
	switch path {
	case PathHome:
		return fill(reply.(*HomeResponse))(h.HandleHome(req.(*HomeRequest)))
	case PathProbe:
		return fill(reply.(*ProbeResponse))(h.HandleProbe(req.(*ProbeRequest)))
	case PathExplain:
		return fill(reply.(*ExplainResponse))(h.HandleExplain(req.(*ExplainRequest)))
	case PathMeta:
		*reply.(*Meta) = *h.Meta()
	case PathMetrics:
		*reply.(*obs.Snapshot) = obs.Default.Snapshot()
	default:
		panic("fleet: no RPC at " + path)
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
