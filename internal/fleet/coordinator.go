package fleet

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/shard"
)

// The coordinator is the client half of the fleet: it owns the fleet's
// topology (which endpoints serve which shards), answers Related
// queries by scattering the home leg and sibling probes over a
// Transport, and merges the replies with exactly the in-process
// scatter-gather's equivalence mechanisms — shared collection-global
// statistics (frozen into the probes by the home shard), full-depth
// per-cluster cuts merged before Algorithm 2 sums them, and
// order-preserving id assignment so the (score desc, id asc) tie-break
// survives the merge.
// With every shard answering, its results are bit-identical to
// shard.Group and to the single index.
//
// Degradation is explicit and typed. Each leg gets per-attempt
// deadlines with retry-with-backoff on transient errors, hedged
// requests to replicas once a first attempt outlives a twentieth of
// the budget, and deduplication of late duplicate replies by
// (shard, epoch). A sibling that exhausts its budget is dropped from
// the merge and named in Missing with Partial=true; a home shard that
// cannot answer is a typed 503 — without the reference document's
// probes there is nothing correct to return. Replies from a different
// snapshot epoch are never merged.
//
// Concurrency model: each query runs a single-threaded event loop.
// Transports deliver into a mutex-guarded inbox and nudge a notify
// channel; retries, hedges, and attempt timeouts are actions on a
// time-ordered heap the loop itself fires. The loop blocks only in
// Clock.Wait — under the real clock that is a plain select; under
// fleettest.VirtualClock the whole query (scripted fault deliveries
// included) executes deterministically on one goroutine.

// Coordinator-level observability. Per-shard instruments are resolved
// per Coordinator via the GetOrNew registrars.
var (
	spanFleetRelated   = obs.NewSpan("fleet.related")
	ctrRetries         = obs.NewCounter("fleet.retries")
	ctrHedges          = obs.NewCounter("fleet.hedges")
	ctrHedgeWins       = obs.NewCounter("fleet.hedge_wins")
	ctrPartial         = obs.NewCounter("fleet.partial")
	ctrDupReplies      = obs.NewCounter("fleet.dup_replies")
	ctrAttemptTimeouts = obs.NewCounter("fleet.attempt_timeouts")
	ctrEpochMismatch   = obs.NewCounter("fleet.epoch_mismatch")
)

// ShardEndpoints names where one shard partition is served: a primary
// plus optional read replicas (hedge targets).
type ShardEndpoints struct {
	Shard    int      `json:"shard"`
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// Topology is the fleet's endpoint map, one entry per shard.
type Topology struct {
	Endpoints []ShardEndpoints `json:"endpoints"`
}

// Options configures a coordinator: a transport, a clock and one
// budget. Transport is the one mandatory field.
type Options struct {
	// Transport reaches the shard servers. Required.
	Transport Transport
	// Clock drives every timeout, backoff, and hedge decision.
	// RealClock{} when nil; tests install a fleettest.VirtualClock.
	Clock Clock
	// Timeout is the whole-query budget T, explain legs included: when
	// it expires, unanswered siblings become Missing and an unanswered
	// home becomes a 503. Default 2s. The rest of a query's schedule
	// derives from it: each attempt is cut at T/4, a retry after a fast
	// transient error waits T/80 (doubling per attempt), and a leg
	// whose shard has a replica hedges to it after T/20.
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = RealClock{}
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	return o
}

// legRetries is a leg's retry budget beyond its first attempt (and
// beyond its one hedge attempt when the shard has a replica).
const legRetries = 2

// growthStep bounds what one query reply may add to the collection: at
// most max(n, growthStep) documents past the n the coordinator holds, so
// that the directory a reply grows (12 B a document) is at most twice
// what it was. A larger step is refused on every query until the
// coordinator is made again: only New bootstraps, and nothing re-reads
// a meta while it runs.
const growthStep = 1024

// attempt is the per-attempt deadline, a quarter of the budget: a leg
// without a replica spends at most three quarters of it on its three
// attempts.
func (o Options) attempt() time.Duration { return o.Timeout / 4 }

// backoff is the base delay before a retry after a fast transient
// error, doubling per attempt. (Attempt timeouts retry at once: the
// wait already happened.)
func (o Options) backoff() time.Duration { return o.Timeout / 80 }

// hedgeAfter is how long a leg's first attempt runs before the leg
// hedges to a replica, whatever the shard's history: 100 ms at the
// default budget.
func (o Options) hedgeAfter() time.Duration { return o.Timeout / 20 }

// Coordinator scatters Related queries across a shard fleet.
type Coordinator struct {
	opts  Options
	tr    Transport
	clock Clock

	name  string
	total int
	epoch uint64

	eps map[int][]string // shard → primary, replicas...

	// dir is the global↔local id directory, replayed from (seed, doc
	// count) exactly like shard.Group's and grown as servers report
	// larger counts.
	dir *shard.Directory

	// Per-shard health view for GET /stats: consecutive leg failures
	// (reset on any merged leg) and the kind of the last failure.
	healthMu    sync.Mutex
	consecFail  []int
	lastErrKind []string

	ctrLegOK   []*obs.Counter // fleet.leg.NN.ok: legs merged
	ctrLegMiss []*obs.Counter // fleet.leg.NN.missing: legs dropped as missing
	spanLeg    []*obs.Span    // fleet.leg.NN: leg latency (first launch → win)

	// cacheGen extends the static snapshot epoch into a live cache
	// epoch (see CacheEpoch). Bumped whenever the coordinator's view of
	// the fleet changes in a way a cached merged result must not
	// survive: the directory grows (a shard reported adds) or a shard's
	// health transitions to degraded.
	cacheGen atomic.Uint64
}

// New bootstraps a coordinator against a topology: it fetches
// /internal/meta from each shard's endpoints (first to answer wins),
// verifies that every server agrees on the snapshot epoch and that the
// topology covers every shard, and replays the routing directory from
// the document count the servers report.
func New(ctx context.Context, topo Topology, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if opts.Transport == nil {
		return nil, fmt.Errorf("fleet: Options.Transport is required")
	}
	eps := make(map[int][]string, len(topo.Endpoints))
	for _, e := range topo.Endpoints {
		if _, dup := eps[e.Shard]; dup {
			return nil, fmt.Errorf("fleet: topology lists shard %d twice", e.Shard)
		}
		if e.Primary == "" {
			return nil, fmt.Errorf("fleet: topology shard %d has no primary", e.Shard)
		}
		eps[e.Shard] = append([]string{e.Primary}, e.Replicas...)
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("fleet: topology is empty")
	}

	c := &Coordinator{opts: opts, tr: opts.Transport, clock: opts.Clock, eps: eps}
	var first *Meta
	for s, list := range eps {
		m, err := c.bootstrapMeta(ctx, list)
		if err != nil {
			return nil, fmt.Errorf("fleet: bootstrapping shard %d: %w", s, err)
		}
		if m.Wire != WireVersion {
			return nil, fmt.Errorf("fleet: bootstrapping shard %d: %w", s, &RPCError{
				Status: http.StatusBadGateway, Kind: "wire_mismatch",
				Msg: fmt.Sprintf("endpoint speaks wire version %d, this coordinator speaks %d", m.Wire, WireVersion)})
		}
		owns := false
		for _, o := range m.Shards {
			owns = owns || o == s
		}
		if !owns {
			return nil, fmt.Errorf("fleet: endpoint for shard %d serves shards %v", s, m.Shards)
		}
		if first == nil {
			first = m
			continue
		}
		if m.Epoch != first.Epoch {
			return nil, fmt.Errorf("fleet: shard %d endpoint is on epoch %d, fleet is on %d (mixed snapshots)", s, m.Epoch, first.Epoch)
		}
	}
	if first.TotalShards != len(eps) {
		return nil, fmt.Errorf("fleet: servers declare %d shards, topology lists %d", first.TotalShards, len(eps))
	}
	for s := 0; s < first.TotalShards; s++ {
		if _, ok := eps[s]; !ok {
			return nil, fmt.Errorf("fleet: topology is missing shard %d", s)
		}
	}

	c.name = first.Name
	c.total = first.TotalShards
	c.epoch = first.Epoch
	c.dir = shard.NewDirectory(first.Seed, c.total)
	c.consecFail = make([]int, c.total)
	c.lastErrKind = make([]string, c.total)
	c.ctrLegOK = make([]*obs.Counter, c.total)
	c.ctrLegMiss = make([]*obs.Counter, c.total)
	c.spanLeg = make([]*obs.Span, c.total)
	for s := 0; s < c.total; s++ {
		lbl := fmt.Sprintf("fleet.leg.%02d", s)
		c.ctrLegOK[s] = obs.GetOrNewCounter(lbl + ".ok")
		c.ctrLegMiss[s] = obs.GetOrNewCounter(lbl + ".missing")
		c.spanLeg[s] = obs.GetOrNewSpan(lbl)
	}
	c.growDir(first.Docs)
	return c, nil
}

// bootstrapMeta fetches a shard's self-description, trying each
// endpoint once in order with the per-attempt timeout.
func (c *Coordinator) bootstrapMeta(ctx context.Context, eps []string) (*Meta, error) {
	var lastErr error
	for _, ep := range eps {
		m, err := fetchOne[Meta](c, ctx, ep, PathMeta)
		if err == nil {
			return m, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// fetchOne is the synchronous-over-async skeleton for the one-shot GETs
// (meta bootstrap, metrics scrape): issue the call, then block in the
// same Clock.Wait discipline as the query loop (so it works under
// fleettest's VirtualClock and Chaos too) until the delivery or the
// per-attempt deadline.
func fetchOne[T any](c *Coordinator, ctx context.Context, ep, path string) (*T, error) {
	notify := make(chan struct{}, 1)
	var mu sync.Mutex
	var gerr error
	done := false
	reply := new(T)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.tr.Call(cctx, ep, path, nil, reply, func(err error) {
		mu.Lock()
		if !done {
			gerr, done = err, true
		}
		mu.Unlock()
		select {
		case notify <- struct{}{}:
		default:
		}
	})
	deadline := c.clock.Now().Add(c.opts.attempt())
	timedOut := false
	for {
		mu.Lock()
		d, err := done, gerr
		mu.Unlock()
		switch {
		case d && err != nil:
			return nil, err
		case d:
			return reply, nil
		case timedOut:
			return nil, &RPCError{Status: 0, Kind: "timeout", Msg: fmt.Sprintf("%s from %s exceeded %v", path, ep, c.opts.attempt())}
		}
		switch c.clock.Wait(ctx, notify, deadline) {
		case WaitCanceled:
			return nil, ctx.Err()
		case WaitDeadline:
			timedOut = true
		}
	}
}

// ShardScrape is one shard's leg of a federated metrics scrape: the
// snapshot from the first endpoint that answered, or the failure that
// exhausted the endpoint list. Err is the explicit scrape-failure
// marker — a fleet view never silently omits a shard.
type ShardScrape struct {
	Shard    int           `json:"shard"`
	Endpoint string        `json:"endpoint,omitempty"`
	Snapshot *obs.Snapshot `json:"snapshot,omitempty"`
	Err      string        `json:"error,omitempty"`
}

// ScrapeFleet fetches every shard's raw registry snapshot (primary
// first, replicas as fallback, per-attempt timeout each) and merges
// the successes: counters/gauges by sum, histograms bucket-wise (exact
// — see obs.MergeSnapshots). Scrapes run concurrently; the per-shard
// results come back ordered by shard id.
func (c *Coordinator) ScrapeFleet(ctx context.Context) ([]ShardScrape, obs.Snapshot) {
	scrapes := make([]ShardScrape, c.total)
	var wg sync.WaitGroup
	for s := 0; s < c.total; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sc := ShardScrape{Shard: s}
			for _, ep := range c.eps[s] {
				snap, err := fetchOne[obs.Snapshot](c, ctx, ep, PathMetrics)
				if err == nil {
					sc.Endpoint, sc.Snapshot, sc.Err = ep, snap, ""
					break
				}
				sc.Err = err.Error()
			}
			scrapes[s] = sc
		}(s)
	}
	wg.Wait()
	parts := make([]obs.Snapshot, 0, c.total)
	for _, sc := range scrapes {
		if sc.Snapshot != nil {
			parts = append(parts, *sc.Snapshot)
		}
	}
	return scrapes, obs.MergeSnapshots(parts...)
}

// SnapshotEpoch returns the fleet's snapshot epoch: the lineage every
// shard agreed on at bootstrap and stamps on every reply.
func (c *Coordinator) SnapshotEpoch() uint64 { return c.epoch }

// Epoch returns the fleet-wide cache-invalidation epoch: the snapshot
// epoch, advanced every time the coordinator's view of the collection
// changes — a shard reports a larger document count (growDir) or a
// shard's health transitions to degraded. The serving layer keys its
// merged-result cache by this value. The shard-side document count is
// learned lazily (from reply metadata, the fleet has no push channel),
// so a shard-side add invalidates when its first post-add reply
// arrives; the public fleet surface is read-only (AddContext refuses),
// which makes that window unobservable through the coordinator itself.
// Partial results are never cached at all, so degraded-window responses
// cannot be replayed as complete (see internal/serve).
func (c *Coordinator) Epoch() uint64 { return c.epoch + c.cacheGen.Load() }

// NumShards returns the fleet's shard count.
func (c *Coordinator) NumShards() int { return c.total }

// NumDocs returns the coordinator's current view of the collection
// size (grows as servers report adds).
func (c *Coordinator) NumDocs() int { return c.dir.NumDocs() }

// growDir extends the directory to the document count a server
// reported. Growth means the collection changed under us: the cache
// epoch advances before any future query reads it, so no merged result
// computed against the smaller collection is served again. Bumped under
// no lock — Epoch readers only need monotonicity.
func (c *Coordinator) growDir(docs int) {
	if c.dir.Grow(docs) {
		c.cacheGen.Add(1)
	}
}

// AddContext refuses, typed: the networked fleet serves read-only
// snapshots.
func (c *Coordinator) AddContext(context.Context, string) (int, error) {
	return 0, &RPCError{
		Status: http.StatusNotImplemented, Kind: "read_only",
		Msg: "the networked fleet serves read-only snapshots; ingest through the offline build, save a new snapshot and restart the shard servers on it",
	}
}

// StatsReport is the coordinator's self-description, the GET /stats
// body of a server over it: the fleet topology view, the live per-shard
// health ledger (consecutive leg failures, last error kind), then the
// serving layer's hygiene blocks. CacheEpoch appears only when a result
// cache is keyed by it.
type StatsReport struct {
	Method      string        `json:"method"`
	NumDocs     int           `json:"num_docs"`
	Shards      int           `json:"shards"`
	Epoch       uint64        `json:"epoch"`
	ShardHealth []ShardHealth `json:"shard_health"`
	CacheEpoch  uint64        `json:"cache_epoch,omitempty"`
	cache.LayerStats
}

// Describe returns the coordinator's StatsReport around the serving
// layer's hygiene blocks.
func (c *Coordinator) Describe(hygiene cache.LayerStats) any {
	r := StatsReport{
		Method:      c.name,
		NumDocs:     c.NumDocs(),
		Shards:      c.total,
		Epoch:       c.epoch,
		ShardHealth: c.health(),
		LayerStats:  hygiene,
	}
	if hygiene.Cache != nil {
		r.CacheEpoch = c.Epoch()
	}
	return r
}

// noteLegOK resets a shard's consecutive-failure streak.
func (c *Coordinator) noteLegOK(s int) {
	c.healthMu.Lock()
	c.consecFail[s] = 0
	c.healthMu.Unlock()
}

// noteLegFail extends a shard's failure streak and records why. The
// first failure of a streak is a health transition to degraded, which
// advances the cache epoch: results merged while every shard answered
// must not be conflated with what the degraded fleet can currently
// prove, and the next queries re-compute instead of replaying the
// healthy-era cache.
func (c *Coordinator) noteLegFail(s int, kind string) {
	c.healthMu.Lock()
	c.consecFail[s]++
	degraded := c.consecFail[s] == 1
	c.lastErrKind[s] = kind
	c.healthMu.Unlock()
	if degraded {
		c.cacheGen.Add(1)
	}
}

// errKind extracts a machine-readable failure kind for the health view.
func errKind(err error) string {
	if err == nil {
		return "budget_exhausted"
	}
	var rpc *RPCError
	if errors.As(err, &rpc) && rpc.Kind != "" {
		return rpc.Kind
	}
	if errors.Is(err, ErrEpochMismatch) {
		return "epoch_mismatch"
	}
	return "error"
}

// ShardHealth is one shard's entry in the coordinator's health view —
// the degradation state that existed internally since the retry/hedge
// machinery landed, exposed on GET /stats.
type ShardHealth struct {
	Shard int `json:"shard"`
	// Endpoints is primary first, then replicas — the hedge rotation.
	Endpoints []string `json:"endpoints"`
	// ConsecutiveFailures counts legs dropped since the last merged leg.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastErrorKind names the most recent failure (empty: never failed).
	LastErrorKind string `json:"last_error_kind,omitempty"`
}

// health reports the per-shard health view, ordered by shard id.
func (c *Coordinator) health() []ShardHealth {
	out := make([]ShardHealth, c.total)
	for s := 0; s < c.total; s++ {
		c.healthMu.Lock()
		fails, kind := c.consecFail[s], c.lastErrKind[s]
		c.healthMu.Unlock()
		out[s] = ShardHealth{
			Shard:               s,
			Endpoints:           append([]string(nil), c.eps[s]...),
			ConsecutiveFailures: fails,
			LastErrorKind:       kind,
		}
	}
	return out
}

// leg is one shard's state machine within a query: the RPC it issues,
// endpoints to rotate through, the attempt budget, in-flight accounting,
// and the winning reply.
type leg struct {
	path    string
	req     any
	shard   int
	eps     []string
	started time.Time

	attempts int          // attempts launched
	inflight int          // attempts neither answered nor timed out
	closed   map[int]bool // attempt → no longer expected to deliver
	nextEp   int
	hedged   bool
	cancels  []context.CancelFunc

	done   bool
	failed error
	reply  any // *HomeResponse, *ProbeResponse or *ExplainResponse, once done
}

// maxAttempts is a leg's total attempt budget: first + legRetries, and
// one hedge slot when the shard has a replica to hedge to.
func (l *leg) maxAttempts() int {
	if len(l.eps) > 1 {
		return legRetries + 2
	}
	return legRetries + 1
}

func (l *leg) cancelAll() {
	for _, cancel := range l.cancels {
		cancel()
	}
}

// delivery is one transport reply landing in the inbox.
type delivery struct {
	shard   int
	attempt int
	hedge   bool
	sentAt  time.Time
	reply   any // the attempt's own reply pointer, filled when err is nil
	err     error
}

// errBudget is the loop-internal "whole-query deadline reached"
// sentinel.
var errBudget = &RPCError{Status: http.StatusServiceUnavailable, Kind: "fleet_timeout", Msg: "query budget exhausted"}

// scatter is one query's event loop: the inbox, the action heap, and
// the legs in flight. It lives on a single goroutine; transports only
// touch the inbox.
type scatter struct {
	c        *Coordinator
	ctx      context.Context
	deadline time.Time
	tr       *obs.Trace

	mu     sync.Mutex
	queue  []delivery
	notify chan struct{}

	actions eventHeap
	aseq    int64

	legs    map[int]*leg
	maxDocs int
}

func (c *Coordinator) newScatter(ctx context.Context, deadline time.Time, tr *obs.Trace) *scatter {
	return &scatter{
		c:        c,
		ctx:      ctx,
		deadline: deadline,
		tr:       tr,
		notify:   make(chan struct{}, 1),
		legs:     make(map[int]*leg),
	}
}

// push is the transport-facing inbox append; safe from any goroutine.
func (sc *scatter) push(d delivery) {
	sc.mu.Lock()
	sc.queue = append(sc.queue, d)
	sc.mu.Unlock()
	select {
	case sc.notify <- struct{}{}:
	default:
	}
}

func (sc *scatter) pop() (delivery, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.queue) == 0 {
		return delivery{}, false
	}
	d := sc.queue[0]
	sc.queue = sc.queue[1:]
	return d, true
}

// after schedules a coordinator action (retry, hedge, attempt timeout)
// on the loop's own heap. Actions fire from the loop goroutine only.
func (sc *scatter) after(d time.Duration, fn func()) {
	sc.aseq++
	heap.Push(&sc.actions, event{at: sc.c.clock.Now().Add(d), seq: sc.aseq, fn: fn})
}

// launch starts one attempt of a leg: pick the next endpoint
// round-robin, issue the RPC with a cancelable context, arm the
// attempt timeout, and (first attempt with replicas) arm the hedge.
func (sc *scatter) launch(l *leg, hedge bool) {
	ep := l.eps[l.nextEp%len(l.eps)]
	l.nextEp++
	attempt := l.attempts
	l.attempts++
	l.inflight++
	actx, cancel := context.WithCancel(sc.ctx)
	l.cancels = append(l.cancels, cancel)
	sentAt := sc.c.clock.Now()
	shardID := l.shard
	reply := newReply(l.path)
	sc.c.tr.Call(actx, ep, l.path, l.req, reply, func(err error) {
		sc.push(delivery{shard: shardID, attempt: attempt, hedge: hedge, sentAt: sentAt, reply: reply, err: err})
	})
	sc.after(sc.c.opts.attempt(), func() { sc.onAttemptTimeout(l, attempt, cancel) })
	if !hedge && attempt == 0 && len(l.eps) > 1 {
		sc.after(sc.c.opts.hedgeAfter(), func() { sc.onHedgeTimer(l) })
	}
}

// newReply allocates the reply of one attempt of a query leg, whose
// path is PathHome, PathProbe or PathExplain.
func newReply(path string) any {
	switch path {
	case PathHome:
		return new(HomeResponse)
	case PathProbe:
		return new(ProbeResponse)
	default:
		return new(ExplainResponse)
	}
}

// startLeg registers and launches a leg for a shard.
func (sc *scatter) startLeg(l *leg) {
	l.closed = make(map[int]bool)
	l.started = sc.c.clock.Now()
	sc.legs[l.shard] = l
	sc.launch(l, false)
}

// onAttemptTimeout fires when an attempt outlives Options.attempt
// without delivering: cancel it and retry immediately (the backoff
// already happened — we waited the whole attempt budget), or fail the
// leg when nothing is left.
func (sc *scatter) onAttemptTimeout(l *leg, attempt int, cancel context.CancelFunc) {
	if l.done || l.failed != nil || l.closed[attempt] {
		return
	}
	l.closed[attempt] = true
	l.inflight--
	cancel()
	ctrAttemptTimeouts.Inc()
	if l.attempts < l.maxAttempts() {
		ctrRetries.Inc()
		sc.launch(l, false)
		return
	}
	if l.inflight == 0 {
		l.failed = &RPCError{Status: http.StatusGatewayTimeout, Kind: "leg_timeout",
			Msg: fmt.Sprintf("shard %d: all %d attempts timed out", l.shard, l.attempts)}
		l.cancelAll()
	}
}

// onHedgeTimer fires when a leg's first attempt has outlived the hedge
// delay: launch a parallel attempt at the next endpoint (the replica).
func (sc *scatter) onHedgeTimer(l *leg) {
	if l.done || l.failed != nil || l.hedged || l.attempts >= l.maxAttempts() {
		return
	}
	l.hedged = true
	ctrHedges.Inc()
	sc.launch(l, true)
}

// onError handles a delivered failure: transient errors consume a
// retry (with doubling backoff) against the next endpoint; permanent
// ones fail the leg at once.
func (sc *scatter) onError(l *leg, err error) {
	if !IsTransient(err) {
		l.failed = err
		l.cancelAll()
		return
	}
	if l.attempts < l.maxAttempts() {
		backoff := sc.c.opts.backoff() << uint(l.attempts-1)
		sc.after(backoff, func() {
			if l.done || l.failed != nil {
				return
			}
			ctrRetries.Inc()
			sc.launch(l, false)
		})
		return
	}
	if l.inflight == 0 {
		l.failed = err
		l.cancelAll()
	}
}

// handleDelivery is the loop-side intake for one reply: dedup against
// finished legs and closed attempts, validate epoch and shape, then
// either settle the leg or route the error.
func (sc *scatter) handleDelivery(d delivery) {
	l := sc.legs[d.shard]
	if l == nil || l.done || l.failed != nil || l.closed[d.attempt] {
		ctrDupReplies.Inc()
		return
	}
	l.closed[d.attempt] = true
	l.inflight--
	if d.err != nil {
		sc.onError(l, d.err)
		return
	}
	var epoch uint64
	var docs int
	var remote []obs.TraceEvent
	var bad error
	switch r := d.reply.(type) {
	case *HomeResponse:
		epoch, docs, remote = r.Epoch, r.Docs, r.Trace
		k := l.req.(*HomeRequest).K
		if want := (match.MRConfig{}).ListDepth(k); r.N != want {
			bad = fmt.Errorf("depth %d for k = %d, want %d", r.N, k, want)
		} else {
			bad = checkLists(r.Lists, len(r.Probes), want)
		}
	case *ProbeResponse:
		epoch, docs, remote = r.Epoch, r.Docs, r.Trace
		req := l.req.(*ProbeRequest)
		bad = checkLists(r.Lists, len(req.Probes), req.Depth)
	case *ExplainResponse:
		epoch, remote = r.Epoch, r.Trace
		if want := len(l.req.(*ExplainRequest).Items); len(r.Items) != want {
			bad = fmt.Errorf("%d explain items for %d", len(r.Items), want)
		}
	}
	if n := sc.c.dir.NumDocs(); bad == nil && docs-n > max(n, growthStep) {
		bad = fmt.Errorf("%d documents, %d more than the coordinator holds", docs, docs-n)
	}
	if bad != nil {
		sc.onError(l, &RPCError{Status: http.StatusBadGateway, Kind: "malformed",
			Msg: fmt.Sprintf("shard %d: %v", d.shard, bad)})
		return
	}
	if epoch != sc.c.epoch {
		ctrEpochMismatch.Inc()
		sc.onError(l, ErrEpochMismatch)
		return
	}
	if docs > sc.maxDocs {
		sc.maxDocs = docs
	}
	l.done = true
	l.reply = d.reply
	l.cancelAll()
	now := sc.c.clock.Now()
	sc.c.spanLeg[l.shard].Record(now.Sub(l.started))
	if d.hedge {
		ctrHedgeWins.Inc()
	}
	if sc.tr != nil {
		hedge := int64(0)
		if d.hedge {
			hedge = 1
		}
		sc.tr.Event("fleet.leg",
			obs.N("shard", int64(l.shard)),
			obs.N("attempts", int64(l.attempts)),
			obs.N("hedge_won", hedge),
			obs.N("rtt_ns", int64(now.Sub(d.sentAt))))
		sc.stitchRemote(l.shard, remote)
	}
}

// checkLists checks a reply's lists for Directory.Merge, which takes
// them on trust: want lists of at most depth entries, each strictly best
// first under match.Result.Before, no id negative (it indexes the
// directory out of range) or repeated (it is summed twice).
func checkLists(lists [][]match.Result, want, depth int) error {
	if len(lists) != want {
		return fmt.Errorf("%d lists for %d probes", len(lists), want)
	}
	seen := make(map[int]bool)
	for i, l := range lists {
		if len(l) > depth {
			return fmt.Errorf("list %d holds %d entries, past depth %d", i, len(l), depth)
		}
		clear(seen)
		for j, r := range l {
			switch {
			case r.DocID < 0 || seen[r.DocID]:
				return fmt.Errorf("list %d: entry %d has id %d, negative or repeated", i, j, r.DocID)
			case j > 0 && !l[j-1].Before(r):
				return fmt.Errorf("list %d: entry %d is out of order", i, j)
			}
			seen[r.DocID] = true
		}
	}
	return nil
}

// stitchRemote splices a reply's shard-side child-trace events into the
// coordinator's trace, directly after the leg's own "fleet.leg" marker.
// Remote offsets are relative to the server's request receipt, which
// lies inside [sentAt, now] on the coordinator's clock — so each event
// keeps its remote-relative offset as an attribute (remote_at_ns) and
// the hop is bounded by the fleet.leg marker's rtt_ns, with no remote
// wall clock trusted anywhere. The stitched events' own At values are
// stamped at stitch time, preserving the trace's per-process
// monotonicity invariant.
func (sc *scatter) stitchRemote(shard int, remote []obs.TraceEvent) {
	for _, ev := range remote {
		attrs := make([]obs.Attr, 0, len(ev.Attrs)+2)
		attrs = append(attrs,
			obs.N("shard", int64(shard)),
			obs.N("remote_at_ns", int64(ev.At)))
		attrs = append(attrs, ev.Attrs...)
		sc.tr.Event("remote."+ev.Name, attrs...)
	}
}

// await runs the loop until done reports true, the query budget
// expires (errBudget), or the context is canceled. Tie policy at equal
// instants: deliveries beat actions, so a reply landing exactly at its
// attempt's deadline still wins.
func (sc *scatter) await(done func() bool) error {
	for {
		if d, ok := sc.pop(); ok {
			sc.handleDelivery(d)
			continue
		}
		now := sc.c.clock.Now()
		if len(sc.actions) > 0 && !sc.actions[0].at.After(now) {
			ev := heap.Pop(&sc.actions).(event)
			ev.fn()
			continue
		}
		if done() {
			return nil
		}
		until := sc.deadline
		if len(sc.actions) > 0 && sc.actions[0].at.Before(until) {
			until = sc.actions[0].at
		}
		switch sc.c.clock.Wait(sc.ctx, sc.notify, until) {
		case WaitCanceled:
			return sc.ctx.Err()
		case WaitNotified:
			continue
		case WaitDeadline:
			if !sc.c.clock.Now().Before(sc.deadline) {
				// Budget gone. One last drain so replies that raced the
				// deadline still count.
				if d, ok := sc.pop(); ok {
					sc.handleDelivery(d)
					if done() {
						return nil
					}
				}
				return errBudget
			}
		}
	}
}

// cancelAllLegs releases every outstanding attempt — the mid-scatter
// cancellation and deadline paths both end here, so no leg goroutine
// outlives the query.
func (sc *scatter) cancelAllLegs() {
	for _, l := range sc.legs {
		l.cancelAll()
	}
}

// gatherOut is the scatter-gather front half's product, shared by the
// plain and explained forms of Query.
type gatherOut struct {
	probes  []WireProbe
	lists   []shard.MergedList
	scores  map[int]float64
	missing []int
}

// gather runs the two-phase networked scatter: home leg first (probes
// + home lists + depth), then every sibling in parallel with
// home-seeded floors, then the global merge. Sibling failures fall
// into missing; home failures are returned as typed errors.
func (c *Coordinator) gather(ctx context.Context, docID, k int, deadline time.Time, tr *obs.Trace) (*gatherOut, error) {
	home, local, ok := c.dir.Lookup(docID)
	if !ok {
		return nil, ErrUnknownDoc
	}
	sc := c.newScatter(ctx, deadline, tr)
	defer sc.cancelAllLegs()
	traced := tr != nil
	var traceID string
	if traced {
		traceID = tr.ID()
	}
	if tr != nil {
		tr.Event("fleet.scatter", obs.N("shards", int64(c.total)), obs.N("home", int64(home)))
	}

	// Phase 1: the home leg. Without it there are no probes, no frozen
	// factors, and no depth — nothing correct to degrade to.
	hl := &leg{path: PathHome, shard: home, eps: c.eps[home],
		req: &HomeRequest{Shard: home, LocalDoc: local, K: k, TraceID: traceID, Trace: traced}}
	sc.startLeg(hl)
	err := sc.await(func() bool { return hl.done || hl.failed != nil })
	if err != nil && err != errBudget {
		return nil, err // context canceled mid-scatter
	}
	if !hl.done {
		ferr := hl.failed
		if ferr == nil {
			ferr = errBudget
		}
		var rpc *RPCError
		if errors.As(ferr, &rpc) && rpc.Status == http.StatusNotFound {
			return nil, ErrUnknownDoc
		}
		c.ctrLegMiss[home].Inc()
		c.noteLegFail(home, errKind(ferr))
		if tr != nil {
			tr.Event("fleet.leg.missing", obs.N("shard", int64(home)), obs.A("kind", errKind(ferr)))
		}
		return nil, &RPCError{Status: http.StatusServiceUnavailable, Kind: "fleet_unavailable",
			Msg: fmt.Sprintf("home shard %d unavailable: %v", home, ferr)}
	}
	resp := hl.reply.(*HomeResponse)
	c.ctrLegOK[home].Inc()
	c.noteLegOK(home)

	// Phase 2: siblings, all at the home-reported depth, each scanning
	// under thetas seeded with the home floors (each floor is a proven
	// lower bound on the merged list's n-th score — see index.Theta).
	n := resp.N
	floors := make([]float64, len(resp.Probes))
	for i, l := range resp.Lists {
		if len(l) >= n && n > 0 {
			floors[i] = l[n-1].Score
		}
	}
	if c.total > 1 {
		for s := 0; s < c.total; s++ {
			if s == home {
				continue
			}
			sc.startLeg(&leg{path: PathProbe, shard: s, eps: c.eps[s],
				req: &ProbeRequest{Shard: s, Probes: resp.Probes, Depth: n, Floors: floors, TraceID: traceID, Trace: traced}})
		}
		err = sc.await(func() bool {
			for s, l := range sc.legs {
				if s != home && !l.done && l.failed == nil {
					return false
				}
			}
			return true
		})
		if err != nil && err != errBudget {
			return nil, err // context canceled mid-scatter
		}
	}
	sc.cancelAllLegs()

	out := &gatherOut{probes: resp.Probes}
	for s := 0; s < c.total; s++ {
		if s == home {
			continue
		}
		l := sc.legs[s]
		if l != nil && l.done {
			c.ctrLegOK[s].Inc()
			c.noteLegOK(s)
			continue
		}
		out.missing = append(out.missing, s)
		c.ctrLegMiss[s].Inc()
		var kind string
		if l != nil {
			kind = errKind(l.failed)
		} else {
			kind = "not_started"
		}
		c.noteLegFail(s, kind)
		if tr != nil {
			tr.Event("fleet.leg.missing", obs.N("shard", int64(s)), obs.A("kind", kind))
		}
	}
	if len(out.missing) > 0 {
		ctrPartial.Inc()
		if tr != nil {
			tr.Event("fleet.partial", obs.N("missing", int64(len(out.missing))))
		}
	}

	// Merge: shard.Group's own, then Algorithm 2 sums. A missing shard
	// stays nil in perShard and the merge is exact over the rest.
	c.growDir(sc.maxDocs)
	perShard := make([][][]match.Result, c.total)
	perShard[home] = resp.Lists
	for s, l := range sc.legs {
		if s != home && l.done {
			perShard[s] = l.reply.(*ProbeResponse).Lists
		}
	}
	clusters := make([]int, len(resp.Probes))
	for i, p := range resp.Probes {
		clusters[i] = p.Cluster
	}
	out.lists, out.scores = c.dir.Merge(clusters, n, perShard, tr)
	return out, nil
}

// Query answers one top-k query over the networked fleet, with
// term-level Eq 7–9 breakdowns when explain is set; a context-carried
// obs.Trace records the scatter and is propagated to the shards. With
// all shards answering, the result is bit-identical to shard.Group and
// the single index; with siblings missing it is the exact merge over
// the remaining shards, flagged Partial with the missing shard ids.
// Gather and explain share one deadline, the budget from now.
func (c *Coordinator) Query(ctx context.Context, docID, k int, explain bool) (match.Answer, error) {
	if k <= 0 {
		return match.Answer{}, nil
	}
	tr := obs.TraceFrom(ctx)
	tm := spanFleetRelated.Start()
	defer tm.Stop()
	deadline := c.clock.Now().Add(c.opts.Timeout)
	g, err := c.gather(ctx, docID, k, deadline, tr)
	if err != nil {
		return match.Answer{}, err
	}
	ans := match.Answer{Results: match.TopKScores(g.scores, k, docID)}
	if explain {
		if ans.Explanations, err = c.explain(ctx, g, ans.Results, deadline, tr); err != nil {
			return match.Answer{}, err
		}
	}
	ans.Partial, ans.Missing = len(g.missing) > 0, g.missing
	return ans, nil
}

// explain fetches the breakdowns of results from each result
// document's owning shard. Explain legs run under the query's own
// deadline; a shard that cannot answer by it leaves its documents'
// Clusters without terms and joins g.missing.
func (c *Coordinator) explain(ctx context.Context, g *gatherOut, results []match.Result, deadline time.Time, tr *obs.Trace) ([]match.Explanation, error) {
	// Plan the explain batches: every summand of a result is one (doc,
	// cluster) item on the result's owning shard, carrying the probe's
	// term context.
	exps, summands := shard.Explain(g.lists, results)
	reqs := make(map[int]*ExplainRequest)
	refs := make(map[int][]shard.Summand)
	for _, sm := range summands {
		s, l, _ := c.dir.Lookup(results[sm.Result].DocID)
		req := reqs[s]
		if req == nil {
			req = &ExplainRequest{Shard: s}
			reqs[s] = req
		}
		p := g.probes[sm.Probe]
		req.Items = append(req.Items, ExplainItem{LocalDoc: l, Cluster: p.Cluster, Terms: p.Terms, QF: p.QF})
		refs[s] = append(refs[s], sm)
	}
	if len(reqs) == 0 {
		return exps, nil
	}

	sc := c.newScatter(ctx, deadline, tr)
	defer sc.cancelAllLegs()
	for s, req := range reqs {
		if tr != nil {
			req.TraceID, req.Trace = tr.ID(), true
		}
		sc.startLeg(&leg{path: PathExplain, shard: s, eps: c.eps[s], req: req})
	}
	err := sc.await(func() bool {
		for _, l := range sc.legs {
			if !l.done && l.failed == nil {
				return false
			}
		}
		return true
	})
	if err != nil && err != errBudget {
		return nil, err
	}
	sc.cancelAllLegs()
	for s, l := range sc.legs {
		if l.done {
			items := l.reply.(*ExplainResponse).Items
			for j, sm := range refs[s] {
				exps[sm.Result].Clusters[sm.Slot].Terms = items[j]
			}
			continue
		}
		if !slices.Contains(g.missing, s) {
			g.missing = append(g.missing, s)
			ctrPartial.Inc()
		}
	}
	sort.Ints(g.missing)
	return exps, nil
}
