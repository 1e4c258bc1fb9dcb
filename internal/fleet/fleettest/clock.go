package fleettest

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
)

// VirtualClock is a deterministic fleet.Clock for tests: time advances
// only inside Wait, events fire in (timestamp, registration) order, and
// event callbacks run synchronously on the waiting goroutine — so a
// scripted fault schedule has exactly one possible interleaving. The
// zero value is not usable; call NewVirtualClock.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	events []event // ordered by (at, registration)
}

// event is one scheduled callback.
type event struct {
	at time.Time
	fn func()
}

// NewVirtualClock returns a virtual clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements fleet.Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc implements fleet.Clock: fn is queued to run at now+d during
// a future Wait, after every event already queued for that instant.
// Negative d means "immediately" (it still queues, so the
// deliver-before-return ordering of synchronous transports is
// preserved).
func (c *VirtualClock) AfterFunc(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	at := c.now.Add(d)
	i := sort.Search(len(c.events), func(i int) bool { return c.events[i].at.After(at) })
	c.events = append(c.events, event{})
	copy(c.events[i+1:], c.events[i:])
	c.events[i] = event{at: at, fn: fn}
	c.mu.Unlock()
}

// Wait implements fleet.Clock. Due events (at ≤ until) fire one at a
// time in order, each callback running before the next pops — a
// callback that causes a delivery makes the very next iteration observe
// notify, so deliveries can never be overtaken by a later timestamp.
// With no due event and nothing delivered, time jumps straight to until.
func (c *VirtualClock) Wait(ctx context.Context, notify <-chan struct{}, until time.Time) fleet.WaitOutcome {
	for {
		select {
		case <-notify:
			return fleet.WaitNotified
		default:
		}
		if ctx.Err() != nil {
			return fleet.WaitCanceled
		}
		c.mu.Lock()
		if len(c.events) > 0 && !c.events[0].at.After(until) {
			ev := c.events[0]
			c.events = c.events[1:]
			if ev.at.After(c.now) {
				c.now = ev.at
			}
			c.mu.Unlock()
			ev.fn()
			continue
		}
		if c.now.Before(until) {
			c.now = until
		}
		c.mu.Unlock()
		return fleet.WaitDeadline
	}
}
