package fleettest

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
)

// Chaos wraps a fleet.Transport with scripted faults: per-(endpoint,
// call kind) schedules of delays, errors, and drops, consumed one action
// per call in arrival order. Delays are rescheduled through the Clock,
// so under a VirtualClock a whole fault schedule — slow shards, flappy
// errors, black-holed packets, late duplicate replies — plays out
// deterministically with zero wall-clock sleeping: the scripted
// deliveries fire inside the coordinator's own Wait, in timestamp
// order, on the coordinator's goroutine.
//
// Script keys: Script(endpoint, kind, ...) scopes a schedule to one
// call kind, the last element of the call's path ("home", "probe",
// "explain", "meta", "metricsz"); kind "" matches any call to the
// endpoint. Exact keys win over wildcard keys. A call with
// no scripted action left falls through to Fallback (if set), else
// passes through untouched.

// ChaosAction is one scripted fault. The zero value passes the call
// through unchanged.
type ChaosAction struct {
	// Delay postpones the whole call (request + reply) by this much —
	// the slow-shard fault. The inner transport is not even invoked
	// until the delay elapses, so canceling the attempt in the meantime
	// suppresses the reply (the request never "reached the server").
	Delay time.Duration
	// ReplyDelay lets the request reach the server immediately but
	// postpones the reply — the slow-trickle fault. The work happens up
	// front, so a reply already in flight arrives even after the
	// coordinator gave up on the attempt: the late-duplicate case the
	// dedup machinery exists for.
	ReplyDelay time.Duration
	// Err, when non-nil, is delivered instead of invoking the inner
	// transport (after Delay/ReplyDelay, if set) — the failing-shard
	// fault.
	Err error
	// Drop black-holes the call: the inner transport is never invoked
	// and deliver is never called. Only the coordinator's attempt
	// timeout recovers, exactly like a lost packet.
	Drop bool
}

// Chaos is the fault-injecting fleet.Transport wrapper.
type Chaos struct {
	inner fleet.Transport
	clock fleet.Clock

	mu     sync.Mutex
	script map[string][]ChaosAction
	used   map[string]int

	// Fallback, when set, supplies the action for calls with no
	// scripted entry — the stress test plugs a seeded generator in
	// here to degrade shards pseudo-randomly but reproducibly.
	Fallback func(endpoint, kind string, call int) ChaosAction
	calls    map[string]int
}

// NewChaos wraps inner, scheduling delayed actions on clock.
func NewChaos(inner fleet.Transport, clock fleet.Clock) *Chaos {
	return &Chaos{
		inner:  inner,
		clock:  clock,
		script: make(map[string][]ChaosAction),
		used:   make(map[string]int),
		calls:  make(map[string]int),
	}
}

func scriptKey(endpoint, kind string) string { return endpoint + "\x00" + kind }

// Script appends actions to the schedule for (endpoint, kind); kind ""
// applies to every call kind at the endpoint.
func (c *Chaos) Script(endpoint, kind string, actions ...ChaosAction) {
	c.mu.Lock()
	k := scriptKey(endpoint, kind)
	c.script[k] = append(c.script[k], actions...)
	c.mu.Unlock()
}

// next consumes the action for one call.
func (c *Chaos) next(endpoint, kind string) ChaosAction {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range [2]string{scriptKey(endpoint, kind), scriptKey(endpoint, "")} {
		if u, s := c.used[k], c.script[k]; u < len(s) {
			c.used[k] = u + 1
			return s[u]
		}
	}
	if c.Fallback != nil {
		n := c.calls[endpoint]
		c.calls[endpoint] = n + 1
		return c.Fallback(endpoint, kind, n)
	}
	return ChaosAction{}
}

// Call implements fleet.Transport. It consumes the call's action and
// plays it: drop it, or run it (the scripted error, else the inner call)
// now or after Delay, its reply postponed by ReplyDelay.
func (c *Chaos) Call(ctx context.Context, endpoint, path string, req, reply any, deliver func(error)) {
	act := c.next(endpoint, path[strings.LastIndexByte(path, '/')+1:])
	if act.Drop {
		return
	}
	if d := act.ReplyDelay; d > 0 {
		inner := deliver
		deliver = func(err error) { c.clock.AfterFunc(d, func() { inner(err) }) }
	}
	step := func() { c.inner.Call(ctx, endpoint, path, req, reply, deliver) }
	if act.Err != nil {
		step = func() { deliver(act.Err) }
	}
	if act.Delay > 0 {
		c.clock.AfterFunc(act.Delay, step)
		return
	}
	step()
}
