package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

var (
	ctrQueued  = obs.NewCounter("admit.queued")
	ctrShed    = obs.NewCounter("admit.shed")
	gaugeDepth = obs.NewGauge("admit.queue_depth")
	spanWait   = obs.NewSpan("admit.wait")
)

// ErrOverloaded is returned by Acquire when the in-flight limit and
// the wait queue are both full. The serving layer maps it to a typed
// 503 with Retry-After.
var ErrOverloaded = errors.New("overloaded: in-flight limit and queue full")

// waiter is one queued Acquire. ready is closed by Release when a slot
// transfers to it; granted disambiguates the race where a waiter is
// granted a slot and canceled at the same time.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// Admission bounds concurrent query computation. Up to maxInflight
// requests compute at once; the next maxQueued wait FIFO for a slot;
// beyond that Acquire sheds with ErrOverloaded. Release hands the slot
// directly to the oldest waiter, so a slot never goes idle while the
// queue is non-empty.
//
// now is a clock hook so tests can drive the queue-wait histogram on a
// virtual clock; production uses time.Now.
type Admission struct {
	maxInflight int
	maxQueued   int
	now         func() time.Time

	mu       sync.Mutex
	inflight int
	queue    []*waiter

	queuedTotal, shed atomic.Int64
}

// NewAdmission builds an admission controller. maxInflight must be
// ≥ 1; maxQueued may be 0 (shed immediately once the limit is
// reached).
func NewAdmission(maxInflight, maxQueued int) *Admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueued < 0 {
		maxQueued = 0
	}
	return &Admission{maxInflight: maxInflight, maxQueued: maxQueued, now: time.Now}
}

// Acquire blocks until a computation slot is free, the queue rejects
// the request (ErrOverloaded), or ctx is canceled (ctx.Err()). A nil
// return means the caller holds a slot and must Release it.
func (a *Admission) Acquire(ctx context.Context) error {
	a.mu.Lock()
	if a.inflight < a.maxInflight {
		a.inflight++
		a.mu.Unlock()
		return nil
	}
	if len(a.queue) >= a.maxQueued {
		a.mu.Unlock()
		ctrShed.Inc()
		a.shed.Add(1)
		return ErrOverloaded
	}
	w := &waiter{ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	gaugeDepth.Set(int64(len(a.queue)))
	a.mu.Unlock()
	ctrQueued.Inc()
	a.queuedTotal.Add(1)
	start := a.now()

	select {
	case <-w.ready:
		spanWait.Record(a.now().Sub(start))
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Release already handed us the slot; give it back so the
			// transfer chain continues.
			a.mu.Unlock()
			spanWait.Record(a.now().Sub(start))
			a.Release()
			return ctx.Err()
		}
		for i, q := range a.queue {
			if q == w {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				break
			}
		}
		gaugeDepth.Set(int64(len(a.queue)))
		a.mu.Unlock()
		spanWait.Record(a.now().Sub(start))
		return ctx.Err()
	}
}

// Release returns a slot. If a waiter is queued the slot transfers to
// it without touching the in-flight count; otherwise the count drops.
func (a *Admission) Release() {
	a.mu.Lock()
	if len(a.queue) > 0 {
		w := a.queue[0]
		a.queue = a.queue[1:]
		w.granted = true
		close(w.ready)
		gaugeDepth.Set(int64(len(a.queue)))
		a.mu.Unlock()
		return
	}
	a.inflight--
	a.mu.Unlock()
}

// AdmissionStats is the per-controller view /stats serves.
type AdmissionStats struct {
	MaxInflight int   `json:"max_inflight"`
	MaxQueued   int   `json:"max_queued"`
	Inflight    int   `json:"inflight"`
	QueueDepth  int   `json:"queue_depth"`
	QueuedTotal int64 `json:"queued_total"`
	Shed        int64 `json:"shed"`
}

// Stats snapshots the controller.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	inflight, depth := a.inflight, len(a.queue)
	a.mu.Unlock()
	return AdmissionStats{
		MaxInflight: a.maxInflight,
		MaxQueued:   a.maxQueued,
		Inflight:    inflight,
		QueueDepth:  depth,
		QueuedTotal: a.queuedTotal.Load(),
		Shed:        a.shed.Load(),
	}
}
