package fleet

import (
	"time"

	"repro/internal/obs"
)

// The internals the package's external tests (package fleet_test) read.

const LegRetries = legRetries

var (
	NewHost    = newHost
	BadRequest = badRequest

	CtrRetries         = ctrRetries
	CtrHedges          = ctrHedges
	CtrHedgeWins       = ctrHedgeWins
	CtrPartial         = ctrPartial
	CtrDupReplies      = ctrDupReplies
	CtrAttemptTimeouts = ctrAttemptTimeouts
	CtrEpochMismatch   = ctrEpochMismatch
)

func (o Options) WithDefaults() Options     { return o.withDefaults() }
func (o Options) Attempt() time.Duration    { return o.attempt() }
func (o Options) Backoff() time.Duration    { return o.backoff() }
func (o Options) HedgeAfter() time.Duration { return o.hedgeAfter() }

func (c *Coordinator) Name() string               { return c.name }
func (c *Coordinator) Health() []ShardHealth      { return c.health() }
func (c *Coordinator) CtrLegOK() []*obs.Counter   { return c.ctrLegOK }
func (c *Coordinator) CtrLegMiss() []*obs.Counter { return c.ctrLegMiss }
