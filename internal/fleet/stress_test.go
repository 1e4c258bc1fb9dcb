package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/obs"
)

// The -race stress test: concurrent Related traffic against a
// chaos-degraded live fleet while a writer keeps adding documents
// through the underlying shard.Group (the hosts share its matchers, so
// adds become visible to probes mid-flight). Exact rankings are
// unstable under concurrent writes by design, so each response is
// checked against the structural contract instead:
//
//   - never torn: no duplicate ids, ids in range, reference doc
//     excluded, at most k results, (score desc, id asc) order
//   - Partial=false ⇔ Missing empty; Missing never contains the home
//     shard, is sorted, and has no duplicates
//   - errors are typed (*RPCError) or context errors — nothing leaks
//     raw internal failures
//   - fleet counters only ever move forward while traffic runs
//
// Once the fleet quiesces, a fresh fault-free coordinator must again be
// bit-identical to the in-process group over the grown corpus.
func TestFleetChaosStress(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	docs := genDocs(t, forum.TechSupport, 120, 42)
	extra := genDocs(t, forum.TechSupport, 160, 42)[120:]
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 4, 42, 1)

	clock := fleet.RealClock{}
	ch := fleettest.NewChaos(f.lt, clock)
	// Seeded degradation: every call's fate is a pure function of
	// (endpoint, kind, call index). Meta stays healthy so bootstrap and
	// re-bootstrap always work.
	ch.Fallback = func(endpoint, kind string, call int) fleettest.ChaosAction {
		if kind == "meta" {
			return fleettest.ChaosAction{}
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%s/%d", endpoint, kind, call)
		x := h.Sum64()
		switch {
		case x%13 == 0:
			return fleettest.ChaosAction{Drop: true}
		case x%7 == 0:
			return fleettest.ChaosAction{Err: &fleet.RPCError{Status: 500, Kind: "injected", Msg: "stress flap"}}
		case x%3 == 0:
			return fleettest.ChaosAction{Delay: time.Duration(x%4) * time.Millisecond}
		}
		return fleettest.ChaosAction{}
	}
	// A 200ms budget: attempts cut at 50ms, a hedge after 10ms.
	c, err := fleet.New(context.Background(), f.topo(1), fleet.Options{Transport: ch, Clock: clock, Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}

	// Monotone-counter watcher: samples the fleet instruments while
	// traffic runs and fails on any decrease.
	watched := []*obs.Counter{
		fleet.CtrRetries, fleet.CtrHedges, fleet.CtrHedgeWins, fleet.CtrPartial,
		fleet.CtrDupReplies, fleet.CtrAttemptTimeouts, fleet.CtrEpochMismatch,
	}
	watched = append(watched, c.CtrLegOK()...)
	watched = append(watched, c.CtrLegMiss()...)
	watchStop := make(chan struct{})
	watchDone := make(chan struct{})
	var watchErr error
	go func() {
		defer close(watchDone)
		last := make([]int64, len(watched))
		for i, w := range watched {
			last[i] = w.Value()
		}
		for {
			select {
			case <-time.After(2 * time.Millisecond):
			case <-watchStop:
				return
			}
			for i, w := range watched {
				v := w.Value()
				if v < last[i] {
					watchErr = fmt.Errorf("counter %s went backwards: %d -> %d", w.Name(), last[i], v)
					return
				}
				last[i] = v
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(format string, args ...any) {
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		mu.Unlock()
	}

	// Writer: grows the collection through the live group.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range extra {
			f.g.Add(d)
		}
	}()

	// Readers: shape-check every response.
	const readers, queriesPerReader, k = 6, 25, 5
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < queriesPerReader; q++ {
				doc := (r*queriesPerReader + q*17) % len(docs)
				res, err := c.Query(context.Background(), doc, k, false)
				if err != nil {
					var rpc *fleet.RPCError
					if !errors.As(err, &rpc) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						fail("reader %d doc %d: untyped error %T: %v", r, doc, err, err)
					}
					continue
				}
				if len(res.Results) > k {
					fail("doc %d: %d results for k=%d", doc, len(res.Results), k)
				}
				maxID := f.g.NumDocs() // sampled after the response; ids only grow
				seen := make(map[int]bool, len(res.Results))
				for i, rr := range res.Results {
					if rr.DocID == doc {
						fail("doc %d: reference doc in its own results", doc)
					}
					if rr.DocID < 0 || rr.DocID >= maxID {
						fail("doc %d: result id %d out of [0,%d)", doc, rr.DocID, maxID)
					}
					if seen[rr.DocID] {
						fail("doc %d: duplicate result id %d (torn merge)", doc, rr.DocID)
					}
					seen[rr.DocID] = true
					if i > 0 {
						prev := res.Results[i-1]
						if rr.Score > prev.Score || (rr.Score == prev.Score && rr.DocID < prev.DocID) {
							fail("doc %d: results out of (score desc, id asc) order at %d", doc, i)
						}
					}
				}
				if res.Partial != (len(res.Missing) > 0) {
					fail("doc %d: partial=%v but missing=%v", doc, res.Partial, res.Missing)
				}
				home := f.g.Route(doc)
				for i, m := range res.Missing {
					if m == home {
						fail("doc %d: home shard %d listed missing instead of erroring", doc, m)
					}
					if m < 0 || m >= f.g.NumShards() {
						fail("doc %d: missing shard %d out of range", doc, m)
					}
					if i > 0 && res.Missing[i-1] >= m {
						fail("doc %d: missing list not sorted/unique: %v", doc, res.Missing)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(watchStop)
	<-watchDone
	if watchErr != nil {
		t.Fatal(watchErr)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Quiesced: a fault-free coordinator over the grown corpus must be
	// exact again, including the documents added mid-traffic.
	c2, err := fleet.New(context.Background(), f.topo(0), fleet.Options{Transport: f.lt, Clock: clock})
	if err != nil {
		t.Fatalf("re-bootstrap: %v", err)
	}
	if c2.NumDocs() != len(docs)+len(extra) {
		t.Fatalf("post-stress coordinator sees %d docs, want %d", c2.NumDocs(), len(docs)+len(extra))
	}
	for doc := 0; doc < c2.NumDocs(); doc += 13 {
		want := f.g.Match(doc, k)
		res, err := c2.Query(context.Background(), doc, k, false)
		if err != nil {
			t.Fatalf("post-stress doc %d: %v", doc, err)
		}
		if res.Partial {
			t.Fatalf("post-stress doc %d: partial over a healthy fleet", doc)
		}
		sameResults(t, fmt.Sprintf("post-stress doc %d", doc), want, res.Results)
	}
}
