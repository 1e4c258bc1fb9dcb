package fleet

import (
	"context"
	"time"
)

// Time in the coordinator flows through one narrow interface so the
// fault-injection suite can run every timeout, backoff, and hedge
// decision on a virtual clock — scripted delays, zero wall-clock
// sleeps, fully deterministic outcomes — while production uses the real
// clock unchanged.
//
// The coordinator is written as a per-query event loop with a single
// waiter: all of its timing needs reduce to "block until something is
// delivered, a scheduled instant arrives, or the request is canceled",
// which is exactly Wait. Fault injectors schedule their deliveries with
// AfterFunc on the same clock; under fleettest.VirtualClock those
// callbacks run synchronously inside Wait, in strict timestamp order,
// from the waiting goroutine itself — so a scripted schedule produces
// one and only one interleaving.

// WaitOutcome says why Wait returned.
type WaitOutcome int

const (
	// WaitNotified: the notify channel fired — a delivery arrived.
	WaitNotified WaitOutcome = iota
	// WaitDeadline: the requested instant was reached first.
	WaitDeadline
	// WaitCanceled: the context was done first.
	WaitCanceled
)

// Clock abstracts the coordinator's relationship with time.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Wait blocks until notify fires (WaitNotified), until arrives
	// (WaitDeadline), or ctx is done (WaitCanceled). A virtual clock
	// advances its own time to at most until, running due AfterFunc
	// callbacks along the way.
	Wait(ctx context.Context, notify <-chan struct{}, until time.Time) WaitOutcome
	// AfterFunc schedules fn to run once d from now. Fault injectors use
	// it to script deliveries; the coordinator itself never does (its
	// scheduled work rides on Wait deadlines).
	AfterFunc(d time.Duration, fn func())
}

// RealClock is the production Clock: wall time, real timers.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Wait implements Clock with a plain select.
func (RealClock) Wait(ctx context.Context, notify <-chan struct{}, until time.Time) WaitOutcome {
	d := time.Until(until)
	if d <= 0 {
		// The instant has passed; report a delivery if one is already
		// pending, else the deadline — never block.
		select {
		case <-notify:
			return WaitNotified
		default:
			return WaitDeadline
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-notify:
		return WaitNotified
	case <-t.C:
		return WaitDeadline
	case <-ctx.Done():
		return WaitCanceled
	}
}

// AfterFunc implements Clock.
func (RealClock) AfterFunc(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// event is one scheduled coordinator action.
type event struct {
	at  time.Time
	seq int64
	fn  func()
}

// eventHeap orders a scatter's actions by (time, registration sequence).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
