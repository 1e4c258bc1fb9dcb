package fleet_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/obs"
)

// Tests for the PR 9 observability layer: cross-process trace
// propagation (stitched coordinator traces, wire-version gating), the
// federated metrics scrape, and the per-shard health ledger. Fault
// scenarios reuse the faultinject harness — VirtualClock + Chaos — so
// every degraded trace below is deterministic.

// attrStr / attrInt read one attribute off a trace event.
func attrStr(ev obs.TraceEvent, key string) (string, bool) {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Str, true
		}
	}
	return "", false
}

func attrInt(ev obs.TraceEvent, key string) (int64, bool) {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Int, true
		}
	}
	return 0, false
}

// assertWellFormedTrace checks the structural invariants every stitched
// coordinator trace must satisfy, degraded or not:
//
//   - At is non-decreasing over the stored sequence (the coordinator
//     stamps spliced remote events at stitch time, so remote splices
//     cannot travel back in time relative to local events);
//   - every shard in legs has a fleet.leg marker carrying rtt_ns;
//   - every shard in missing has a fleet.leg.missing marker with a kind;
//   - remote.* events carry the shard and remote_at_ns annotations.
func assertWellFormedTrace(t *testing.T, events []obs.TraceEvent, legs, missing []int) {
	t.Helper()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("trace not monotone: event %d (%s at %v) before event %d (%s at %v)",
				i, events[i].Name, events[i].At, i-1, events[i-1].Name, events[i-1].At)
		}
	}
	legSeen := make(map[int64]bool)
	missSeen := make(map[int64]bool)
	for _, ev := range events {
		switch {
		case ev.Name == "fleet.leg":
			s, ok := attrInt(ev, "shard")
			if !ok {
				t.Fatalf("fleet.leg without shard attr: %+v", ev)
			}
			if _, ok := attrInt(ev, "rtt_ns"); !ok {
				t.Fatalf("fleet.leg without rtt_ns: %+v", ev)
			}
			legSeen[s] = true
		case ev.Name == "fleet.leg.missing":
			s, ok := attrInt(ev, "shard")
			if !ok {
				t.Fatalf("fleet.leg.missing without shard attr: %+v", ev)
			}
			if kind, ok := attrStr(ev, "kind"); !ok || kind == "" {
				t.Fatalf("fleet.leg.missing without kind: %+v", ev)
			}
			missSeen[s] = true
		case strings.HasPrefix(ev.Name, "remote."):
			if _, ok := attrInt(ev, "shard"); !ok {
				t.Fatalf("remote event without shard attr: %+v", ev)
			}
			if _, ok := attrInt(ev, "remote_at_ns"); !ok {
				t.Fatalf("remote event without remote_at_ns: %+v", ev)
			}
		}
	}
	for _, s := range legs {
		if !legSeen[int64(s)] {
			t.Fatalf("no fleet.leg marker for shard %d (events: %d)", s, len(events))
		}
	}
	for _, s := range missing {
		if !missSeen[int64(s)] {
			t.Fatalf("no fleet.leg.missing marker for shard %d", s)
		}
	}
}

// remoteShards lists which shards contributed at least one spliced
// remote event.
func remoteShards(events []obs.TraceEvent) map[int64]bool {
	out := make(map[int64]bool)
	for _, ev := range events {
		if strings.HasPrefix(ev.Name, "remote.") {
			if s, ok := attrInt(ev, "shard"); ok {
				out[s] = true
			}
		}
	}
	return out
}

func TestTracePropagationHealthy(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 120, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 4, 42, 0)
	const doc, k = 3, 6
	full := f.g.Match(doc, k)

	sc := newScenario(t, f, 0)

	// Tracing must not perturb the answer: traced and untraced runs both
	// match the in-process sharded oracle bit for bit.
	plain, err := sc.c.Query(context.Background(), doc, k, false)
	if err != nil {
		t.Fatalf("untraced: %v", err)
	}
	sameResults(t, "untraced", full, plain.Results)

	tr := obs.NewTrace()
	res, err := sc.c.Query(obs.WithTrace(context.Background(), tr), doc, k, false)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	sameResults(t, "traced", full, res.Results)
	if res.Partial {
		t.Fatalf("healthy traced query came back partial: %+v", res)
	}

	events := tr.Events()
	var legs []int
	for s := 0; s < f.g.NumShards(); s++ {
		legs = append(legs, s)
	}
	assertWellFormedTrace(t, events, legs, nil)

	// Every shard ran server-side and shipped its child events back:
	// the home shard records host.recv + host.lists, siblings host.recv
	// + host.probed — all spliced under the remote. prefix.
	got := remoteShards(events)
	for _, s := range legs {
		if !got[int64(s)] {
			t.Fatalf("no remote events from shard %d; events: %+v", s, events)
		}
	}
}

func TestStitchedTraceShardDeathMidScatter(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 120, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 4, 42, 1)
	const doc, k = 3, 6
	home := f.g.Route(doc)
	sibs := sibsOf(f, home)
	dead := sibs[0]

	sc := newScenario(t, f, 1)
	// The shard dies mid-scatter: both its endpoints black-hole every
	// attempt, hedge, and retry. The deterministic VirtualClock replays
	// the whole degraded timeline — attempt timeouts, retries, budget
	// exhaustion — with zero wall-clock sleeping.
	sc.ch.Script(epName(dead, 0), "", repeat(fleettest.ChaosAction{Drop: true}, 8)...)
	sc.ch.Script(epName(dead, 1), "", repeat(fleettest.ChaosAction{Drop: true}, 8)...)

	tr := obs.NewTrace()
	res, err := sc.c.Query(obs.WithTrace(context.Background(), tr), doc, k, false)
	if err != nil {
		t.Fatalf("traced degraded query: %v", err)
	}
	if !res.Partial {
		t.Fatalf("expected partial result with shard %d dead", dead)
	}

	events := tr.Events()
	var alive []int
	for _, s := range sibs[1:] {
		alive = append(alive, s)
	}
	alive = append(alive, home)
	assertWellFormedTrace(t, events, alive, []int{dead})

	got := remoteShards(events)
	if got[int64(dead)] {
		t.Fatalf("dead shard %d contributed remote events", dead)
	}
	for _, s := range alive {
		if !got[int64(s)] {
			t.Fatalf("surviving shard %d shipped no remote events", s)
		}
	}
}

func TestScrapeFleetSumsAndMarksFailures(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 80, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 3, 42, 0)
	c := f.coordinator(t, f.topo(0), fleet.Options{Transport: f.lt})

	// Drive some traffic so counters are non-zero.
	for d := 0; d < 5; d++ {
		if _, err := c.Query(context.Background(), d, 4, false); err != nil {
			t.Fatalf("related %d: %v", d, err)
		}
	}

	scrapes, merged := c.ScrapeFleet(context.Background())
	if len(scrapes) != 3 {
		t.Fatalf("scrapes: %d, want 3", len(scrapes))
	}
	for _, sc := range scrapes {
		if sc.Err != "" || sc.Snapshot == nil {
			t.Fatalf("healthy fleet scrape failed on shard %d: %q", sc.Shard, sc.Err)
		}
	}
	// Fleet-aggregated counters are exactly the sum of the per-shard
	// scrapes — the invariant the smoke harness re-checks over HTTP.
	for name, v := range merged.Counters {
		var sum int64
		for _, sc := range scrapes {
			sum += sc.Snapshot.Counters[name]
		}
		if v != sum {
			t.Fatalf("counter %s: merged %d != per-shard sum %d", name, v, sum)
		}
	}

	// Kill shard 1's only endpoint: its scrape must carry an explicit
	// error marker, and the merge must cover exactly the survivors.
	f.lt.RemoveHost(epName(1, 0))
	scrapes, merged = c.ScrapeFleet(context.Background())
	if scrapes[1].Err == "" || scrapes[1].Snapshot != nil {
		t.Fatalf("dead shard scrape not marked: %+v", scrapes[1])
	}
	for name, v := range merged.Counters {
		var sum int64
		for _, sc := range scrapes {
			if sc.Snapshot != nil {
				sum += sc.Snapshot.Counters[name]
			}
		}
		if v != sum {
			t.Fatalf("counter %s after death: merged %d != survivor sum %d", name, v, sum)
		}
	}
}

func TestHealthLedgerTracksFailures(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 120, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 4, 42, 0)
	const doc, k = 3, 6
	home := f.g.Route(doc)
	sibs := sibsOf(f, home)

	sc := newScenario(t, f, 0)
	// Exactly one query's worth of failures (maxAttempts = retries + 2 =
	// 4), so the follow-up query finds a healthy shard again.
	sc.ch.Script(epName(sibs[0], 0), "probe",
		repeat(fleettest.ChaosAction{Err: &fleet.RPCError{Status: 500, Kind: "injected", Msg: "down"}}, 4)...)

	if _, err := sc.c.Query(context.Background(), doc, k, false); err != nil {
		t.Fatalf("related: %v", err)
	}
	h := sc.c.Health()
	if len(h) != 4 {
		t.Fatalf("health entries: %d, want 4", len(h))
	}
	if h[sibs[0]].ConsecutiveFailures < 1 {
		t.Fatalf("failed shard shows %d consecutive failures", h[sibs[0]].ConsecutiveFailures)
	}
	if h[sibs[0]].LastErrorKind != "injected" {
		t.Fatalf("last error kind %q, want injected", h[sibs[0]].LastErrorKind)
	}
	if h[home].ConsecutiveFailures != 0 {
		t.Fatalf("healthy home shard shows failures: %+v", h[home])
	}

	// The script is exhausted; a clean query resets the streak but keeps
	// the last error kind as history.
	if _, err := sc.c.Query(context.Background(), doc, k, false); err != nil {
		t.Fatalf("recovery related: %v", err)
	}
	h = sc.c.Health()
	if h[sibs[0]].ConsecutiveFailures != 0 {
		t.Fatalf("streak not reset after recovery: %+v", h[sibs[0]])
	}
	if h[sibs[0]].LastErrorKind != "injected" {
		t.Fatalf("last error kind should persist as history, got %q", h[sibs[0]].LastErrorKind)
	}
}
