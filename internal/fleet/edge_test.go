package fleet

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/obs"
)

// Edge cases of the degradation machinery: clock semantics, bootstrap
// validation, exact retry/backoff timing, and leg release on the
// cancellation paths.

func TestVirtualClockOrdering(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	var fired []string
	clock.AfterFunc(30*time.Millisecond, func() { fired = append(fired, "c") })
	clock.AfterFunc(10*time.Millisecond, func() { fired = append(fired, "a") })
	clock.AfterFunc(10*time.Millisecond, func() { fired = append(fired, "b") }) // same instant: registration order
	clock.AfterFunc(-5*time.Millisecond, func() { fired = append(fired, "now") })

	notify := make(chan struct{}, 1)
	ctx := context.Background()
	if got := clock.Wait(ctx, notify, clock.Now().Add(20*time.Millisecond)); got != WaitDeadline {
		t.Fatalf("Wait outcome %v, want WaitDeadline", got)
	}
	if want := "now,a,b"; strings.Join(fired, ",") != want {
		t.Fatalf("events fired as %v, want %s (time then registration order)", fired, want)
	}
	if got := clock.Now().Sub(time.Unix(0, 0)); got != 20*time.Millisecond {
		t.Fatalf("clock at %v after Wait, want 20ms", got)
	}
	// The 30ms event is still pending; a later Wait past it fires it.
	if got := clock.Wait(ctx, notify, clock.Now().Add(time.Hour)); got != WaitDeadline {
		t.Fatalf("second Wait outcome %v", got)
	}
	if strings.Join(fired, ",") != "now,a,b,c" {
		t.Fatalf("pending event lost: %v", fired)
	}

	// A due notify beats the deadline; a canceled context beats both.
	notify <- struct{}{}
	if got := clock.Wait(ctx, notify, clock.Now()); got != WaitNotified {
		t.Fatalf("pending notify: outcome %v, want WaitNotified", got)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if got := clock.Wait(cctx, notify, clock.Now().Add(time.Hour)); got != WaitCanceled {
		t.Fatalf("canceled ctx: outcome %v, want WaitCanceled", got)
	}
}

// An event callback that causes a delivery must be observed before any
// later-scheduled event fires — the "deliveries cannot be overtaken"
// guarantee the chaos suite depends on.
func TestVirtualClockDeliveryBeatsLaterEvent(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	notify := make(chan struct{}, 1)
	late := false
	clock.AfterFunc(10*time.Millisecond, func() { notify <- struct{}{} })
	clock.AfterFunc(20*time.Millisecond, func() { late = true })
	if got := clock.Wait(context.Background(), notify, clock.Now().Add(time.Hour)); got != WaitNotified {
		t.Fatalf("outcome %v, want WaitNotified", got)
	}
	if late {
		t.Fatalf("the 20ms event fired before the 10ms delivery was observed")
	}
}

func TestRealClockWait(t *testing.T) {
	clock := RealClock{}
	notify := make(chan struct{}, 1)
	ctx := context.Background()
	if got := clock.Wait(ctx, notify, time.Now().Add(-time.Second)); got != WaitDeadline {
		t.Fatalf("past deadline, empty inbox: %v, want WaitDeadline", got)
	}
	notify <- struct{}{}
	if got := clock.Wait(ctx, notify, time.Now().Add(-time.Second)); got != WaitNotified {
		t.Fatalf("past deadline, pending delivery: %v, want WaitNotified", got)
	}
	notify <- struct{}{}
	if got := clock.Wait(ctx, notify, time.Now().Add(time.Minute)); got != WaitNotified {
		t.Fatalf("future deadline, pending delivery: %v, want WaitNotified", got)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if got := clock.Wait(cctx, notify, time.Now().Add(time.Minute)); got != WaitCanceled {
		t.Fatalf("canceled: %v, want WaitCanceled", got)
	}
	if got := clock.Wait(ctx, notify, time.Now().Add(2*time.Millisecond)); got != WaitDeadline {
		t.Fatalf("short deadline: %v, want WaitDeadline", got)
	}
}

// TestOptionsDefaults pins the schedule the default 2s budget derives:
// 500ms an attempt, a 25ms backoff doubling per retry, a 100ms hedge
// floor and two retries a leg.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if _, ok := o.Clock.(RealClock); !ok {
		t.Fatalf("default clock %T, want RealClock", o.Clock)
	}
	if o.Timeout != 2*time.Second || o.attempt() != 500*time.Millisecond ||
		o.backoff() != 25*time.Millisecond || o.hedgeFloor() != 100*time.Millisecond || legRetries != 2 {
		t.Fatalf("budget %v derives attempt %v, backoff %v, hedge floor %v, %d retries",
			o.Timeout, o.attempt(), o.backoff(), o.hedgeFloor(), legRetries)
	}
}

func TestBootstrapValidation(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 80, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 2, 42, 0)
	clock := NewVirtualClock(time.Unix(0, 0))
	try := func(topo Topology) error {
		_, err := New(context.Background(), topo, vopts(f.lt, clock))
		return err
	}
	wantErr := func(name string, err error, frag string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Fatalf("%s: got %v, want error containing %q", name, err, frag)
		}
	}

	wantErr("empty", try(Topology{}), "empty")
	wantErr("no-transport", func() error {
		_, err := New(context.Background(), f.topo(0), Options{})
		return err
	}(), "Transport is required")
	wantErr("duplicate-shard", try(Topology{Endpoints: []ShardEndpoints{
		{Shard: 0, Primary: "s0"}, {Shard: 0, Primary: "s1"},
	}}), "twice")
	wantErr("no-primary", try(Topology{Endpoints: []ShardEndpoints{{Shard: 0}}}), "no primary")
	wantErr("wrong-owner", try(Topology{Endpoints: []ShardEndpoints{
		{Shard: 0, Primary: "s1"}, {Shard: 1, Primary: "s0"},
	}}), "serves shards")
	wantErr("under-covered", try(Topology{Endpoints: []ShardEndpoints{
		{Shard: 0, Primary: "s0"},
	}}), "topology lists")
	wantErr("dead-endpoint", try(Topology{Endpoints: []ShardEndpoints{
		{Shard: 0, Primary: "s0"}, {Shard: 1, Primary: "nowhere"},
	}}), "bootstrapping shard 1")

	// Mixed snapshot lineages across the fleet must be refused outright.
	imposter := newHost("other-build", 2, f.g.Seed(), f.g.NumClusters(),
		map[int]*match.MR{1: f.g.ShardMR(1)}, f.g.NumDocs)
	f.lt.AddHost("imposter", imposter)
	wantErr("mixed-epochs", try(Topology{Endpoints: []ShardEndpoints{
		{Shard: 0, Primary: "s0"}, {Shard: 1, Primary: "imposter"},
	}}), "epoch")

	// A dead primary with a live replica bootstraps fine.
	if _, err := New(context.Background(), Topology{Endpoints: []ShardEndpoints{
		{Shard: 0, Primary: "nowhere", Replicas: []string{"s0"}},
		{Shard: 1, Primary: "s1"},
	}}, vopts(f.lt, clock)); err != nil {
		t.Fatalf("replica fallback during bootstrap failed: %v", err)
	}
}

// launchRecorder timestamps every attempt the coordinator launches, so
// the backoff test can pin the exact retry schedule.
type launchRecorder struct {
	inner Transport
	clock Clock
	mu    sync.Mutex
	times map[string][]time.Duration // "endpoint/kind" → launch offsets
}

func (r *launchRecorder) record(endpoint, kind string) {
	r.mu.Lock()
	key := endpoint + "/" + kind
	r.times[key] = append(r.times[key], r.clock.Now().Sub(time.Unix(0, 0)))
	r.mu.Unlock()
}

func (r *launchRecorder) Home(ctx context.Context, ep string, req *HomeRequest, deliver func(*HomeResponse, error)) {
	r.record(ep, "home")
	r.inner.Home(ctx, ep, req, deliver)
}

func (r *launchRecorder) Probe(ctx context.Context, ep string, req *ProbeRequest, deliver func(*ProbeResponse, error)) {
	r.record(ep, "probe")
	r.inner.Probe(ctx, ep, req, deliver)
}

func (r *launchRecorder) Explain(ctx context.Context, ep string, req *ExplainRequest, deliver func(*ExplainResponse, error)) {
	r.record(ep, "explain")
	r.inner.Explain(ctx, ep, req, deliver)
}

func (r *launchRecorder) Meta(ctx context.Context, ep string, deliver func(*Meta, error)) {
	r.record(ep, "meta")
	r.inner.Meta(ctx, ep, deliver)
}

func (r *launchRecorder) Metrics(ctx context.Context, ep string, deliver func(*obs.Snapshot, error)) {
	r.record(ep, "metrics")
	r.inner.Metrics(ctx, ep, deliver)
}

// TestBackoffSchedule pins the exact retry timing: under vopts' 800ms
// budget transient errors back off 10ms, then 20ms (doubling), so
// launches land at t = 0, 10, 30ms.
func TestBackoffSchedule(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 80, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 2, 42, 0)
	clock := NewVirtualClock(time.Unix(0, 0))
	ch := NewChaos(f.lt, clock)
	rec := &launchRecorder{inner: ch, clock: clock, times: make(map[string][]time.Duration)}
	c, err := New(context.Background(), f.topo(0), vopts(rec, clock))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	doc := 0
	home := f.g.Route(doc)
	sib := 1 - home
	flap := ChaosAction{Err: &RPCError{Status: 500, Kind: "injected", Msg: "flap"}}
	ch.Script(epName(sib, 0), "probe", flap, flap)
	res, rerr := c.Query(context.Background(), doc, 5, false)
	if rerr != nil {
		t.Fatalf("Related: %v", rerr)
	}
	if res.Partial {
		t.Fatalf("two flaps with budget for three attempts should still complete")
	}
	got := rec.times[epName(sib, 0)+"/probe"]
	want := []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("launch offsets %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("launch offsets %v, want %v", got, want)
		}
	}
}

// TestRetryBudgetWithoutReplica pins a leg's attempt budget when its
// shard has no replica: the first attempt and legRetries more, with no
// hedge slot, since there is nothing to hedge to. A sibling whose probes
// always fail is then reported missing.
func TestRetryBudgetWithoutReplica(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 80, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 2, 42, 0)
	const doc = 0
	sib := 1 - f.g.Route(doc)
	clock := NewVirtualClock(time.Unix(0, 0))
	ch := NewChaos(f.lt, clock)
	ch.Script(epName(sib, 0), "probe", repeat(ChaosAction{Err: &RPCError{Status: 500, Kind: "injected", Msg: "down"}}, 8)...)
	rec := &launchRecorder{inner: ch, clock: clock, times: make(map[string][]time.Duration)}
	c, err := New(context.Background(), f.topo(0), vopts(rec, clock))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	res, err := c.Query(context.Background(), doc, 5, false)
	if err != nil || !res.Partial || len(res.Missing) != 1 || res.Missing[0] != sib {
		t.Fatalf("answer partial=%v missing=%v err=%v, want shard %d missing", res.Partial, res.Missing, err, sib)
	}
	if got := len(rec.times[epName(sib, 0)+"/probe"]); got != legRetries+1 {
		t.Errorf("the failing sibling got %d attempts, want %d", got, legRetries+1)
	}
}

// probeLeaker forwards home legs but turns probes into goroutines
// parked on the attempt context — the shape of a real transport with a
// stuck connection. Every park must be released by the time a query
// returns, whatever path ended it.
type probeLeaker struct {
	inner Transport
	wg    sync.WaitGroup
}

func (p *probeLeaker) Home(ctx context.Context, ep string, req *HomeRequest, deliver func(*HomeResponse, error)) {
	p.inner.Home(ctx, ep, req, deliver)
}

func (p *probeLeaker) Probe(ctx context.Context, ep string, req *ProbeRequest, deliver func(*ProbeResponse, error)) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		<-ctx.Done()
	}()
}

func (p *probeLeaker) Explain(ctx context.Context, ep string, req *ExplainRequest, deliver func(*ExplainResponse, error)) {
	p.inner.Explain(ctx, ep, req, deliver)
}

func (p *probeLeaker) Meta(ctx context.Context, ep string, deliver func(*Meta, error)) {
	p.inner.Meta(ctx, ep, deliver)
}

func (p *probeLeaker) Metrics(ctx context.Context, ep string, deliver func(*obs.Snapshot, error)) {
	p.inner.Metrics(ctx, ep, deliver)
}

// TestBudgetReleasesAllLegs: a query that ends by budget exhaustion
// must cancel the context of every outstanding attempt — a transport
// goroutine blocked on one would otherwise leak per query.
func TestBudgetReleasesAllLegs(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 80, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 4, 42, 0)
	clock := NewVirtualClock(time.Unix(0, 0))
	// The home leg's first attempt is lost and its retry answers at
	// 350ms, so the siblings' third attempts, launched at 750ms, are
	// parked when the 800ms budget runs out.
	ch := NewChaos(f.lt, clock)
	ch.Script(epName(f.g.Route(0), 0), "home", ChaosAction{Drop: true}, ChaosAction{ReplyDelay: 150 * time.Millisecond})
	leaker := &probeLeaker{inner: ch}
	c, err := New(context.Background(), f.topo(0), vopts(leaker, clock))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	res, rerr := c.Query(context.Background(), 0, 5, false)
	if rerr != nil {
		t.Fatalf("Related: %v", rerr)
	}
	if !res.Partial || len(res.Missing) != 3 {
		t.Fatalf("expected all three siblings missing, got partial=%v missing=%v", res.Partial, res.Missing)
	}
	if took := clock.Now().Sub(time.Unix(0, 0)); took != 800*time.Millisecond {
		t.Fatalf("query ended at %v, want at the 800ms budget", took)
	}
	released := make(chan struct{})
	go func() { leaker.wg.Wait(); close(released) }()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatalf("parked transport goroutines were not released after the query returned")
	}
}
