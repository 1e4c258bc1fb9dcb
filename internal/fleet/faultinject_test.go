package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/shard"
)

// The fault-injection harness: every scenario runs a real Coordinator
// over the in-process fleet with a scripted Chaos transport and a
// VirtualClock, so the entire degraded execution — delays, retries,
// backoffs, hedges, attempt timeouts, late duplicates — is
// deterministic and sleeps zero wall-clock time. Each scenario pins one
// fault class to its contract:
//
//   - transient error      → retried after the budget's backoff, full
//     correct answer (a healthy query first takes no virtual time)
//   - sibling black-holed  → well-formed partial, equal to the oracle
//     merge over the surviving shards (refPartial)
//   - slow trickle         → late duplicate deduped, full correct answer
//   - slow primary         → hedge to replica wins, full correct answer
//   - hedged but fast      → primary still wins, no spurious hedge win
//   - epoch mismatch       → replies rejected, shard reported missing
//   - cancel mid-scatter   → context error, all legs released
//   - budget exhausted     → partial (siblings, at the budget) or typed
//     503 (home, whose attempts run out first)
//   - slow gather, silent explain shard → the answer at the budget, that
//     shard missing: explain shares the query's one deadline
//
// The healthy fleet, a dead home shard (typed 503), every sibling dead
// and unknown documents are sequences of internal/serve's model test,
// whose coordinator rows byte-compare every answer under Kill and Heal.
//
// The invariant across all of them: a response is either complete and
// bit-identical to the unsharded index, or explicitly partial and
// bit-identical to the merge without the missing shards, or a typed
// error. Never a hang, never wrong-but-complete.

// delta snapshots a counter so scenarios can assert on increments
// regardless of what earlier tests recorded.
func delta(c *obs.Counter) func() int64 {
	start := c.Value()
	return func() int64 { return c.Value() - start }
}

// repeat builds an n-long schedule of the same action.
func repeat(a ChaosAction, n int) []ChaosAction {
	out := make([]ChaosAction, n)
	for i := range out {
		out[i] = a
	}
	return out
}

// scenario wires one scripted run: fresh clock, fresh chaos over the
// shared backend, fresh coordinator (so latency history and hedge
// state start clean).
type scenario struct {
	f     *testFleet
	clock *VirtualClock
	ch    *Chaos
	c     *Coordinator
}

func newScenario(t testing.TB, f *testFleet, replicas int) *scenario {
	t.Helper()
	clock := NewVirtualClock(time.Unix(0, 0))
	ch := NewChaos(f.lt, clock)
	return &scenario{f: f, clock: clock, ch: ch, c: f.coordinator(t, f.topo(replicas), vopts(ch, clock))}
}

// elapsed is the virtual time the scenario's queries have taken.
func (sc *scenario) elapsed() time.Duration { return sc.clock.Now().Sub(time.Unix(0, 0)) }

// sibsOf lists every shard except home, ascending.
func sibsOf(f *testFleet, home int) []int {
	var sibs []int
	for s := 0; s < f.g.NumShards(); s++ {
		if s != home {
			sibs = append(sibs, s)
		}
	}
	return sibs
}

func TestFaultInjection(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	docs := genDocs(t, forum.TechSupport, 120, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 4, 42, 1)
	const doc, k = 3, 6
	home := f.g.Route(doc)
	sibs := sibsOf(f, home)
	full := f.g.Match(doc, k)

	// assertFull: the response is complete and bit-identical to the
	// in-process sharded answer.
	assertFull := func(t *testing.T, res match.Answer, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if res.Partial || len(res.Missing) != 0 {
			t.Fatalf("expected complete answer, got partial=%v missing=%v", res.Partial, res.Missing)
		}
		sameResults(t, "full", full, res.Results)
	}

	// assertPartial: the response is flagged, names exactly the expected
	// shards, and equals the oracle merge over the survivors.
	assertPartial := func(t *testing.T, res match.Answer, err error, missing ...int) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !res.Partial {
			t.Fatalf("expected partial, got complete: %+v", res)
		}
		got := append([]int(nil), res.Missing...)
		sort.Ints(got)
		want := append([]int(nil), missing...)
		sort.Ints(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("missing shards %v, want %v", got, want)
		}
		miss := make(map[int]bool, len(want))
		for _, s := range want {
			miss[s] = true
		}
		sameResults(t, "partial-oracle", refPartial(t, f, doc, k, miss), res.Results)
	}

	t.Run("transient-error-retried", func(t *testing.T) {
		sc := newScenario(t, f, 0)
		// Before the fault: a healthy query and an id far past the
		// collection both take no virtual time. The id is refused from
		// the directory's table; resolving it by replaying the routing up
		// to the id — two billion hashes under the directory's read lock —
		// is what a request body must never be able to ask for.
		res, err := sc.c.Query(context.Background(), doc, k, false)
		assertFull(t, res, err)
		done := make(chan error, 1)
		go func() {
			_, err := sc.c.Query(context.Background(), 2_000_000_000, k, false)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrUnknownDoc) {
				t.Fatalf("doc two billion: want ErrUnknownDoc, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("doc two billion: the coordinator is still resolving the id after 2s")
		}
		if sc.elapsed() != 0 {
			t.Fatalf("a healthy query consumed virtual time: %v", sc.elapsed())
		}
		retries := delta(ctrRetries)
		sc.ch.Script(epName(sibs[0], 0), "probe", ChaosAction{Err: &RPCError{Status: 500, Kind: "injected", Msg: "flap"}})
		res, err = sc.c.Query(context.Background(), doc, k, false)
		assertFull(t, res, err)
		if retries() != 1 || sc.elapsed() != 10*time.Millisecond {
			t.Fatalf("%d retries over %v, want one after the 10ms backoff", retries(), sc.elapsed())
		}
	})

	t.Run("sibling-black-holed-partial", func(t *testing.T) {
		sc := newScenario(t, f, 1)
		partials := delta(ctrPartial)
		timeouts := delta(ctrAttemptTimeouts)
		// Both endpoints of the shard swallow everything: attempts, the
		// hedge, and every retry vanish. Only timeouts recover.
		sc.ch.Script(epName(sibs[0], 0), "", repeat(ChaosAction{Drop: true}, 8)...)
		sc.ch.Script(epName(sibs[0], 1), "", repeat(ChaosAction{Drop: true}, 8)...)
		res, err := sc.c.Query(context.Background(), doc, k, false)
		assertPartial(t, res, err, sibs[0])
		if partials() < 1 || timeouts() < 2 {
			t.Fatalf("partial=%d attempt_timeouts=%d, want >=1 and >=2", partials(), timeouts())
		}
	})

	t.Run("slow-trickle-late-duplicate", func(t *testing.T) {
		sc := newScenario(t, f, 0)
		dups := delta(ctrDupReplies)
		// sibs[0]'s first reply trickles in at t=300ms — after its attempt
		// timed out at t=200ms and the retry already answered. sibs[1]
		// stays pending past t=300ms (its retry answers at 350ms) so the
		// loop is alive to observe the stale duplicate.
		sc.ch.Script(epName(sibs[0], 0), "probe", ChaosAction{ReplyDelay: 300 * time.Millisecond})
		sc.ch.Script(epName(sibs[1], 0), "probe",
			ChaosAction{Drop: true}, ChaosAction{Delay: 150 * time.Millisecond})
		res, err := sc.c.Query(context.Background(), doc, k, false)
		assertFull(t, res, err)
		if dups() < 1 {
			t.Fatalf("expected the stale reply to be counted as duplicate, got %d", dups())
		}
	})

	t.Run("hedge-replica-wins", func(t *testing.T) {
		sc := newScenario(t, f, 1)
		hedges, wins := delta(ctrHedges), delta(ctrHedgeWins)
		// Primary is near-dead; the hedge fires at 40ms and the replica
		// answers instantly.
		sc.ch.Script(epName(sibs[0], 0), "probe", ChaosAction{Delay: 10 * time.Second})
		res, err := sc.c.Query(context.Background(), doc, k, false)
		assertFull(t, res, err)
		if hedges() < 1 || wins() < 1 {
			t.Fatalf("hedges=%d hedge_wins=%d, want both >=1", hedges(), wins())
		}
	})

	t.Run("hedge-fired-primary-wins", func(t *testing.T) {
		sc := newScenario(t, f, 1)
		hedges, wins := delta(ctrHedges), delta(ctrHedgeWins)
		// Primary answers at 60ms — after the 40ms hedge fires, before the
		// replica's 80ms reply. The primary's answer must win and the
		// hedge must not count as a win.
		sc.ch.Script(epName(sibs[0], 0), "probe", ChaosAction{ReplyDelay: 60 * time.Millisecond})
		sc.ch.Script(epName(sibs[0], 1), "probe", ChaosAction{ReplyDelay: 40 * time.Millisecond})
		res, err := sc.c.Query(context.Background(), doc, k, false)
		assertFull(t, res, err)
		if hedges() < 1 {
			t.Fatalf("expected a hedge, got %d", hedges())
		}
		if wins() != 0 {
			t.Fatalf("primary won but hedge_wins moved by %d", wins())
		}
	})

	t.Run("epoch-mismatch-rejected", func(t *testing.T) {
		sc := newScenario(t, f, 0)
		mism := delta(ctrEpochMismatch)
		// After bootstrap, sibs[0]'s endpoint is redeployed with a host
		// from a different snapshot lineage (different name → different
		// epoch). Its replies must never be merged.
		imposter := newHost("other-build", f.g.NumShards(), f.g.Seed(), f.g.NumClusters(),
			map[int]*match.MR{sibs[0]: f.g.ShardMR(sibs[0])}, f.g.NumDocs)
		f.lt.AddHost(epName(sibs[0], 0), imposter)
		t.Cleanup(func() { f.lt.AddHost(epName(sibs[0], 0), f.hosts[sibs[0]]) })
		res, err := sc.c.Query(context.Background(), doc, k, false)
		assertPartial(t, res, err, sibs[0])
		if mism() < 1 {
			t.Fatalf("expected epoch mismatches to be counted, got %d", mism())
		}
	})

	t.Run("cancel-mid-scatter", func(t *testing.T) {
		sc := newScenario(t, f, 0)
		for _, s := range sibs {
			sc.ch.Script(epName(s, 0), "probe", repeat(ChaosAction{Delay: time.Hour}, 8)...)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sc.clock.AfterFunc(30*time.Millisecond, cancel)
		_, err := sc.c.Query(ctx, doc, k, false)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})

	// slowHome loses the home leg's first attempt and answers its retry
	// 150ms after it was sent: the gather finishes at 350ms of the 800ms
	// budget.
	slowHome := func(sc *scenario) {
		sc.ch.Script(epName(home, 0), "home", ChaosAction{Drop: true}, ChaosAction{ReplyDelay: 150 * time.Millisecond})
	}

	t.Run("budget-exhausted-siblings-missing", func(t *testing.T) {
		// The siblings start at 350ms and are silent: their third
		// attempts, launched at 750ms, are cut by the whole-query
		// deadline, not by their own.
		sc := newScenario(t, f, 0)
		slowHome(sc)
		for _, s := range sibs {
			sc.ch.Script(epName(s, 0), "probe", repeat(ChaosAction{Drop: true}, 8)...)
		}
		res, err := sc.c.Query(context.Background(), doc, k, false)
		assertPartial(t, res, err, sibs...)
		if sc.elapsed() != 800*time.Millisecond {
			t.Fatalf("query should end exactly at the 800ms budget, took %v", sc.elapsed())
		}
	})

	t.Run("budget-exhausted-home-missing", func(t *testing.T) {
		// A silent home spends its three attempts of 200ms each and is a
		// typed 503 at 600ms, inside the budget.
		sc := newScenario(t, f, 0)
		sc.ch.Script(epName(home, 0), "home", repeat(ChaosAction{Drop: true}, 8)...)
		_, err := sc.c.Query(context.Background(), doc, k, false)
		var rpc *RPCError
		if !errors.As(err, &rpc) || rpc.Status != http.StatusServiceUnavailable || rpc.Kind != "fleet_unavailable" {
			t.Fatalf("want typed 503 fleet_unavailable, got %v", err)
		}
		if sc.elapsed() != 600*time.Millisecond {
			t.Fatalf("the home leg failed at %v, want after three 200ms attempts", sc.elapsed())
		}
	})

	t.Run("explain-within-the-budget", func(t *testing.T) {
		// Explain legs start when the gather ends, at 350ms; the silent
		// shard's three attempts would run to 950ms. The query's one
		// deadline cuts them at 800ms and names the shard missing.
		sc := newScenario(t, f, 0)
		slowHome(sc)
		silent := f.g.Route(full[0].DocID)
		sc.ch.Script(epName(silent, 0), "explain", repeat(ChaosAction{Drop: true}, 8)...)
		res, err := sc.c.Query(context.Background(), doc, k, true)
		if err != nil {
			t.Fatalf("explain: %v", err)
		}
		sameResults(t, "explain-results", full, res.Results)
		if !res.Partial || len(res.Missing) != 1 || res.Missing[0] != silent {
			t.Fatalf("partial=%v missing=%v, want shard %d missing", res.Partial, res.Missing, silent)
		}
		if sc.elapsed() != 800*time.Millisecond {
			t.Fatalf("explained query returned at %v, want at the 800ms budget", sc.elapsed())
		}
	})

	t.Run("explain-shard-degrades-to-partial", func(t *testing.T) {
		sc := newScenario(t, f, 0)
		// Related legs succeed; the explain batch on sibs[0] is dropped.
		sc.ch.Script(epName(sibs[0], 0), "explain", repeat(ChaosAction{Drop: true}, 8)...)
		res, err := sc.c.Query(context.Background(), doc, k, true)
		exps := res.Explanations
		if err != nil {
			t.Fatalf("explain: %v", err)
		}
		sameResults(t, "explain-results", full, res.Results)
		owned := false
		for _, r := range res.Results {
			if f.g.Route(r.DocID) == sibs[0] {
				owned = true
			}
		}
		if !owned {
			t.Skipf("no result doc routed to shard %d; scenario vacuous for this corpus", sibs[0])
		}
		if !res.Partial {
			t.Fatalf("explain shard down: expected partial flag")
		}
		for i, e := range exps {
			s := f.g.Route(res.Results[i].DocID)
			for _, cc := range e.Clusters {
				if s == sibs[0] && cc.Terms != nil {
					t.Fatalf("doc %d on dead shard has term breakdown", res.Results[i].DocID)
				}
				if s != sibs[0] && len(cc.Terms) == 0 {
					t.Fatalf("doc %d on healthy shard %d missing term breakdown", res.Results[i].DocID, s)
				}
			}
		}
	})
}

// TestFaultScheduleDeterminism runs one rich scripted schedule twice —
// fresh clock, chaos, and coordinator each time — and requires the two
// executions to produce byte-identical outputs. This is the property
// that makes the whole suite trustworthy: a scripted fault schedule has
// exactly one possible interleaving.
func TestFaultScheduleDeterminism(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 120, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 4, 42, 1)

	run := func() []byte {
		sc := newScenario(t, f, 1)
		// A bit of everything: flapping errors, drops, slow replies, a
		// near-dead primary forcing a hedge.
		sc.ch.Script("s0", "probe", ChaosAction{Err: &RPCError{Status: 500, Kind: "injected", Msg: "flap"}})
		sc.ch.Script("s1", "", repeat(ChaosAction{Drop: true}, 8)...)
		sc.ch.Script("s1-r1", "", repeat(ChaosAction{Drop: true}, 8)...)
		sc.ch.Script("s2", "probe",
			ChaosAction{ReplyDelay: 150 * time.Millisecond},
			ChaosAction{Delay: 60 * time.Millisecond})
		sc.ch.Script("s3", "probe", ChaosAction{Delay: 10 * time.Second})
		var out bytes.Buffer
		for _, doc := range []int{3, 17, 42} {
			res, err := sc.c.Query(context.Background(), doc, 6, false)
			if err != nil {
				fmt.Fprintf(&out, "doc %d err %v\n", doc, err)
				continue
			}
			fmt.Fprintf(&out, "doc %d partial %v missing %v at %v %s\n",
				doc, res.Partial, res.Missing, sc.clock.Now().Sub(time.Unix(0, 0)), mustJSON(t, res.Results))
		}
		return out.Bytes()
	}

	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same schedule, different executions:\nrun A:\n%srun B:\n%s", a, b)
	}
}

// forger rewrites a live fleet's home and probe replies — the lying shard
// a network can put in front of the coordinator, which the scripted Chaos
// cannot express. A nil rewrite passes replies through.
type forger struct {
	Transport
	home  func(*HomeResponse) *HomeResponse
	probe func(*ProbeResponse) *ProbeResponse
}

func (f *forger) Home(ctx context.Context, ep string, req *HomeRequest, deliver func(*HomeResponse, error)) {
	f.Transport.Home(ctx, ep, req, func(r *HomeResponse, err error) {
		if r != nil && f.home != nil {
			r = f.home(r)
		}
		deliver(r, err)
	})
}

func (f *forger) Probe(ctx context.Context, ep string, req *ProbeRequest, deliver func(*ProbeResponse, error)) {
	f.Transport.Probe(ctx, ep, req, func(r *ProbeResponse, err error) {
		if r != nil && f.probe != nil {
			r = f.probe(r)
		}
		deliver(r, err)
	})
}

// TestCoordinatorRejectsForgedLists: a reply list the merge cannot take
// on trust — a negative id (which indexed the directory out of range), a
// repeated id (summed twice into an answer marked complete), entries out
// of (score desc, id asc) order, or more entries than the depth — makes
// the reply malformed. It is retried, then the leg fails: a sibling goes
// missing and the answer is the home-only merge; the home shard is the
// typed 503, as is a home reply whose depth is not ListDepth(k).
func TestCoordinatorRejectsForgedLists(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 200, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 2, 42, 0)
	const doc, k = 3, 5
	home := f.g.Route(doc)
	sib := 1 - home
	homeOnly := refPartial(t, f, doc, k, map[int]bool{sib: true})
	depth := f.mr.Config().ListDepth(k)
	past := make([]match.Result, depth+1)
	for j := range past {
		past[j] = match.Result{DocID: j, Score: float64(len(past) - j)}
	}
	forgeries := []struct {
		name string
		list []match.Result
	}{
		{"negative-id", []match.Result{{DocID: -1, Score: 1}}},
		{"repeated-id", []match.Result{{DocID: 0, Score: 2}, {DocID: 0, Score: 1}}},
		{"score-out-of-order", []match.Result{{DocID: 0, Score: 1}, {DocID: 1, Score: 2}}},
		{"tie-out-of-id-order", []match.Result{{DocID: 1, Score: 1}, {DocID: 0, Score: 1}}},
		{"past-depth", past},
	}
	// query asks through fg, and requires the forged leg to have used its
	// whole budget: the first attempt and its two retries.
	query := func(t *testing.T, fg *forger, leg string) (match.Answer, error) {
		t.Helper()
		clock := NewVirtualClock(time.Unix(0, 0))
		rec := &launchRecorder{inner: fg, clock: clock, times: make(map[string][]time.Duration)}
		res, err := f.coordinator(t, f.topo(0), vopts(rec, clock)).Query(context.Background(), doc, k, false)
		if got := len(rec.times[leg]); got != 3 {
			t.Errorf("%s: %d attempts, want 3", leg, got)
		}
		return res, err
	}
	want503 := func(t *testing.T, err error) {
		t.Helper()
		var rpc *RPCError
		if !errors.As(err, &rpc) || rpc.Status != http.StatusServiceUnavailable || rpc.Kind != "fleet_unavailable" {
			t.Fatalf("want typed 503 fleet_unavailable, got %v", err)
		}
	}
	for _, fc := range forgeries {
		t.Run("sibling-"+fc.name, func(t *testing.T) {
			res, err := query(t, &forger{Transport: f.lt, probe: func(r *ProbeResponse) *ProbeResponse {
				r.Lists[0] = fc.list
				return r
			}}, epName(sib, 0)+"/probe")
			if err != nil || !res.Partial || len(res.Missing) != 1 || res.Missing[0] != sib {
				t.Fatalf("want shard %d missing, got partial=%v missing=%v err=%v", sib, res.Partial, res.Missing, err)
			}
			sameResults(t, "home-only", homeOnly, res.Results)
		})
		t.Run("home-"+fc.name, func(t *testing.T) {
			_, err := query(t, &forger{Transport: f.lt, home: func(r *HomeResponse) *HomeResponse {
				r.Lists[0] = fc.list
				return r
			}}, epName(home, 0)+"/home")
			want503(t, err)
		})
	}
	t.Run("home-wrong-depth", func(t *testing.T) {
		_, err := query(t, &forger{Transport: f.lt, home: func(r *HomeResponse) *HomeResponse {
			r.N++
			return r
		}}, epName(home, 0)+"/home")
		want503(t, err)
	})
}

// FuzzProbeReply sends fuzzed bytes through the coordinator as a
// sibling's probe reply, the epoch and document count kept genuine so
// the lists reach the checks. No reply may panic the merge, and the
// answer must be well formed: complete, or partial with that sibling
// missing; at most k results, best first, each a known document other
// than the query's with a positive score, explained one to one.
func FuzzProbeReply(f *testing.F) {
	docs := genDocs(f, forum.TechSupport, 60, 42)
	fl := buildBackend(f, docs, match.MRConfig{Seed: 7}, 2, 42, 0)
	const doc, k = 3, 5
	home := fl.g.Route(doc)
	sib := 1 - home
	dir := shard.NewDirectory(fl.g.Seed(), 2)
	dir.Grow(len(docs))
	_, local, _ := dir.Lookup(doc)
	hr, err := fl.hosts[home].HandleHome(&HomeRequest{Shard: home, LocalDoc: local, K: k})
	if err != nil {
		f.Fatal(err)
	}
	pr, err := fl.hosts[sib].HandleProbe(&ProbeRequest{Shard: sib, Probes: hr.Probes, Depth: hr.N})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mustJSON(f, pr))
	pr.Lists[0] = append([]match.Result{{DocID: -1, Score: 9}}, pr.Lists[0]...)
	f.Add(mustJSON(f, pr))
	pr.Lists[0][0].DocID = pr.Lists[0][len(pr.Lists[0])-1].DocID
	f.Add(mustJSON(f, pr))
	f.Add([]byte(`{"lists": [[{"d": 1, "s": 1e308}, {"d": 1e9, "s": 0.5}]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var forged ProbeResponse
		if json.Unmarshal(body, &forged) != nil {
			return
		}
		fg := &forger{Transport: fl.lt, probe: func(r *ProbeResponse) *ProbeResponse {
			forged.Epoch, forged.Docs = r.Epoch, r.Docs
			return &forged
		}}
		res, err := fl.coordinator(t, fl.topo(0), vopts(fg, NewVirtualClock(time.Unix(0, 0)))).Query(context.Background(), doc, k, true)
		if err != nil {
			t.Fatalf("a sibling's reply failed the query: %v", err)
		}
		if res.Partial && (len(res.Missing) != 1 || res.Missing[0] != sib) {
			t.Fatalf("partial with missing %v, want [%d]", res.Missing, sib)
		}
		if len(res.Results) > k || len(res.Explanations) != len(res.Results) {
			t.Fatalf("%d results, %d explanations for k = %d", len(res.Results), len(res.Explanations), k)
		}
		for i, r := range res.Results {
			if r.DocID == doc || r.DocID < 0 || r.DocID >= len(docs) || !(r.Score > 0) {
				t.Fatalf("result %d: %+v", i, r)
			}
			if i > 0 && !res.Results[i-1].Before(r) {
				t.Fatalf("results out of order at %d: %v", i, res.Results)
			}
		}
	})
}
