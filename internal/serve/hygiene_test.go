package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/forum"
	"repro/internal/obs"
)

// Tests of the serving-hygiene layer: the epoch-keyed result cache, the
// singleflight group, and bounded admission, driven through the real
// HTTP handlers. The core property is the oracle equivalence — a cached
// server must answer byte-for-byte what a cache-disabled twin answers
// under any interleaving of queries and mutations — plus the shed and
// collapse behaviors that only show up under concurrency.

// freshHygienePipeline builds a private pipeline for tests that mutate
// their collection (the shared testPipeline is byte-compared against
// the fleet fixture elsewhere, so it must never be added to).
func freshHygienePipeline(t *testing.T, numPosts, shards int) *core.Pipeline {
	t.Helper()
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: numPosts, Seed: 42})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	p, err := core.Build(texts, core.Config{Seed: 42, Shards: shards})
	if err != nil {
		t.Fatalf("core.Build: %v", err)
	}
	return p
}

// waitFor polls cond with a deadline; hygiene state transitions (a
// follower joining a flight, a waiter entering the queue) happen on
// other goroutines and have no completion signal of their own.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rawPost is postJSON without the testing.T: goroutines must not call
// t.Fatal, so concurrent requests collect results through this and the
// test asserts after joining.
func rawPost(url, body string) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// TestCacheOracleEquivalence is the invalidation oracle: a cached
// server and a cache-disabled twin over identical private pipelines,
// driven through a seeded random interleaving of /related (docs biased
// toward a hot set so repeats actually hit, k and explain varied) and
// /add (the same text committed to both). Every response must match
// the oracle byte-for-byte — which can only hold if every add
// invalidates every cached entry — at one shard and at four.
func TestCacheOracleEquivalence(t *testing.T) {
	adds := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 30, Seed: 777})
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			obs.Enable()
			t.Cleanup(obs.Disable)
			const numPosts = 120
			cached := New(freshHygienePipeline(t, numPosts, shards), Config{CacheEntries: 256})
			oracle := New(freshHygienePipeline(t, numPosts, shards), Config{})
			cachedTS := httptest.NewServer(cached.Handler())
			t.Cleanup(cachedTS.Close)
			oracleTS := httptest.NewServer(oracle.Handler())
			t.Cleanup(oracleTS.Close)

			rng := rand.New(rand.NewSource(7))
			numDocs, addIdx := numPosts, 0
			for op := 0; op < 80; op++ {
				if addIdx < len(adds) && rng.Float64() < 0.3 {
					b, err := json.Marshal(AddRequest{Text: adds[addIdx].Text})
					if err != nil {
						t.Fatal(err)
					}
					addIdx++
					cResp, cBody := postJSON(t, cachedTS.URL+"/add", string(b))
					oResp, oBody := postJSON(t, oracleTS.URL+"/add", string(b))
					if cResp.StatusCode != oResp.StatusCode || !bytes.Equal(cBody, oBody) {
						t.Fatalf("op %d add: cached %d %s vs oracle %d %s", op, cResp.StatusCode, cBody, oResp.StatusCode, oBody)
					}
					numDocs++
					continue
				}
				doc := rng.Intn(16) // hot set: repeats within an epoch hit the cache
				if rng.Float64() < 0.5 {
					doc = rng.Intn(numDocs)
				}
				k := 1 + rng.Intn(8)
				body := fmt.Sprintf(`{"doc_id": %d, "k": %d, "explain": %t}`, doc, k, rng.Float64() < 0.25)
				// Issue every query twice back-to-back: the repeat is served
				// from the cache (same epoch) and must still match the
				// oracle, which recomputes both times.
				for rep := 0; rep < 2; rep++ {
					cResp, cBody := postJSON(t, cachedTS.URL+"/related", body)
					oResp, oBody := postJSON(t, oracleTS.URL+"/related", body)
					if cResp.StatusCode != oResp.StatusCode {
						t.Fatalf("op %d rep %d %s: status cached=%d oracle=%d", op, rep, body, cResp.StatusCode, oResp.StatusCode)
					}
					if !bytes.Equal(cBody, oBody) {
						t.Fatalf("op %d rep %d %s: bodies diverge:\ncached: %s\noracle: %s", op, rep, body, cBody, oBody)
					}
				}
			}

			// The run must have exercised the machinery it claims to test:
			// hits (so equivalence covered cached answers, not just misses)
			// and epoch invalidations (so adds actually flushed the cache).
			st := cached.cache.Stats()
			if st.Hits == 0 {
				t.Errorf("oracle run produced no cache hits: %+v", st)
			}
			if st.Invalidations == 0 {
				t.Errorf("oracle run produced no epoch invalidations: %+v", st)
			}
			if got := cached.eng.Epoch(); got != oracle.eng.Epoch() {
				t.Errorf("epochs diverged: cached %d, oracle %d", got, oracle.eng.Epoch())
			}
		})
	}
}

// TestSingleflightCollapseServe holds a leader in flight with the
// compute hook and verifies (a) m concurrent identical queries run the
// compute exactly once — one leader, m−1 followers, identical bodies —
// and (b) an /add landing during the flight moves the epoch, so the
// next identical query forms a second flight instead of joining (and
// must not be answered by) the old one.
func TestSingleflightCollapseServe(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	srv := New(freshHygienePipeline(t, 100, 0), Config{CacheEntries: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	var computes atomic.Int64
	srv.testHookCompute = func() {
		computes.Add(1)
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}

	const m = 6
	const query = `{"doc_id": 4, "k": 6}`
	statuses := make([]int, m)
	bodies := make([][]byte, m)
	errs := make([]error, m)
	var wg sync.WaitGroup

	// The leader goes first and parks in the hook; only then do the
	// followers fire, so all of them deterministically join its flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		statuses[0], bodies[0], errs[0] = rawPost(ts.URL+"/related", query)
	}()
	<-entered
	for i := 1; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], bodies[i], errs[i] = rawPost(ts.URL+"/related", query)
		}()
	}
	waitFor(t, "followers to join the flight", func() bool {
		return srv.flight.Stats().Followers == m-1
	})

	// Mutate mid-flight: the epoch moves, so the same query shape now
	// reads a different key and elects a second leader immediately (the
	// hook only blocks the first compute).
	if resp, body := postJSON(t, ts.URL+"/add", `{"text": "usb dock firmware flash bricked after update"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("add during flight: status %d body %s", resp.StatusCode, body)
	}
	freshResp, freshBody := postJSON(t, ts.URL+"/related", query)
	if freshResp.StatusCode != http.StatusOK {
		t.Fatalf("post-add query: status %d body %s", freshResp.StatusCode, freshBody)
	}
	if fs := srv.flight.Stats(); fs.Leaders != 2 || fs.Followers != m-1 {
		t.Fatalf("post-add flight stats = %+v, want 2 leaders, %d followers", fs, m-1)
	}

	close(release)
	wg.Wait()
	for i := 0; i < m; i++ {
		if errs[i] != nil || statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d err %v", i, statuses[i], errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("follower %d body diverged from leader:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("computes = %d, want 2 (blocked leader + post-add leader; followers never compute)", got)
	}

	// The old-epoch leader finished after the add, so its Put was
	// skipped; the post-add leader's entry is the one in the cache.
	hits := srv.cache.Stats().Hits
	if resp, body := postJSON(t, ts.URL+"/related", query); resp.StatusCode != http.StatusOK || !bytes.Equal(body, freshBody) {
		t.Fatalf("repeat after flights: status %d, body matches fresh: %t", resp.StatusCode, bytes.Equal(body, freshBody))
	}
	if got := srv.cache.Stats().Hits; got != hits+1 {
		t.Fatalf("repeat did not hit the current-epoch entry: hits %d → %d", hits, got)
	}
}

// TestAdmissionShedServe pins the overload contract end to end with
// MaxInflight=1, MaxQueued=1: a held slot, one queued request, a typed
// 503 with Retry-After for the third, cancellation unwinding a queued
// waiter, recovery after release, a populated queue-wait histogram,
// and no goroutine leaks once the dust settles.
func TestAdmissionShedServe(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	// No cache: with singleflight off, computes stay request-cancelable,
	// which is what lets the queued waiter unwind.
	srv := New(testPipeline(), Config{MaxInflight: 1, MaxQueued: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Warm the connection pool before taking the goroutine baseline.
	if resp, body := postJSON(t, ts.URL+"/related", `{"doc_id": 1, "k": 3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d body %s", resp.StatusCode, body)
	}
	baseline := runtime.NumGoroutine()

	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	srv.testHookCompute = func() {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}

	// A holds the only slot.
	aDone := make(chan struct{})
	var aStatus int
	var aErr error
	go func() {
		defer close(aDone)
		aStatus, _, aErr = rawPost(ts.URL+"/related", `{"doc_id": 1, "k": 3}`)
	}()
	<-entered

	// B queues behind it, on a cancelable request context.
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	bDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(bctx, http.MethodPost, ts.URL+"/related", strings.NewReader(`{"doc_id": 2, "k": 3}`))
		if err != nil {
			bDone <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("queued request completed with status %d, want cancellation", resp.StatusCode)
		}
		bDone <- err
	}()
	waitFor(t, "request to enter the admission queue", func() bool {
		return srv.admit.Stats().QueueDepth == 1
	})

	// C finds slot and queue full: the typed shed with its backoff hint.
	resp, body := postJSON(t, ts.URL+"/related", `{"doc_id": 3, "k": 3}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, body %s", resp.StatusCode, body)
	}
	if kind := typedError(t, body).Kind; kind != "overloaded" {
		t.Fatalf("shed kind = %q, want overloaded", kind)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if st := srv.admit.Stats(); st.Shed != 1 || st.Inflight != 1 || st.QueueDepth != 1 {
		t.Fatalf("post-shed admission stats = %+v", st)
	}

	// Cancel B: the wait unwinds without ever taking the slot.
	bcancel()
	if err := <-bDone; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("queued request after cancel: %v, want context canceled", err)
	}
	waitFor(t, "canceled waiter to leave the queue", func() bool {
		return srv.admit.Stats().QueueDepth == 0
	})

	// Release A; the server recovers fully.
	close(release)
	<-aDone
	if aErr != nil || aStatus != http.StatusOK {
		t.Fatalf("slot holder: status %d err %v", aStatus, aErr)
	}
	if resp, body := postJSON(t, ts.URL+"/related", `{"doc_id": 5, "k": 3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release query: status %d body %s", resp.StatusCode, body)
	}
	waitFor(t, "inflight to drain", func() bool {
		st := srv.admit.Stats()
		return st.Inflight == 0 && st.QueueDepth == 0
	})

	// B waited in the queue, so the wait histogram has at least one
	// observation.
	if h, ok := obs.Default.Snapshot().Spans["admit.wait"]; !ok || h.Count == 0 {
		t.Fatalf("admit.wait histogram not populated: ok=%t snapshot=%+v", ok, h)
	}

	// Leak check (the PR 8 pattern): drop idle conns, then require the
	// goroutine count back at its pre-storm baseline.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetCachedEquivalenceAndDegradation runs a cached server over a
// coordinator against an uncached twin over the same LocalTransport fleet: healthy
// answers must match byte-for-byte (including explain) with repeats
// served from the cache; killing a shard must advance the fleet cache
// epoch on the first observed failure, making previously cached
// complete answers unreachable — and the partial answers that follow
// must never enter the cache.
func TestFleetCachedEquivalenceAndDegradation(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	f := fleetBackend()

	lt := fleet.NewLocalTransport()
	topo := fleet.Topology{}
	eps := make([]string, f.g.NumShards())
	for s := 0; s < f.g.NumShards(); s++ {
		eps[s] = fmt.Sprintf("hyg-s%d", s)
		lt.AddHost(eps[s], f.hosts[s])
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: eps[s]})
	}
	newCoord := func() *fleet.Coordinator {
		c, err := fleet.New(context.Background(), topo, fleet.Options{Transport: lt})
		if err != nil {
			t.Fatalf("fleet.New: %v", err)
		}
		return c
	}
	cached := New(newCoord(), Config{CacheEntries: 128})
	plain := New(newCoord(), Config{})
	cachedTS := httptest.NewServer(cached.Handler())
	t.Cleanup(cachedTS.Close)
	plainTS := httptest.NewServer(plain.Handler())
	t.Cleanup(plainTS.Close)

	const warmDoc = 9
	warmBody := fmt.Sprintf(`{"doc_id": %d, "k": 5}`, warmDoc)
	queries := []string{
		warmBody,
		fmt.Sprintf(`{"doc_id": %d, "k": 10, "explain": true}`, warmDoc),
		`{"doc_id": 0, "k": 5}`,
		`{"doc_id": 77, "k": 3, "explain": true}`,
	}
	// Two passes: the first fills the cache, the second is served from
	// it — and both must equal the uncached twin byte-for-byte.
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			cResp, cBody := postJSON(t, cachedTS.URL+"/related", q)
			pResp, pBody := postJSON(t, plainTS.URL+"/related", q)
			if cResp.StatusCode != http.StatusOK || pResp.StatusCode != http.StatusOK {
				t.Fatalf("pass %d %s: status cached=%d plain=%d", pass, q, cResp.StatusCode, pResp.StatusCode)
			}
			if !bytes.Equal(cBody, pBody) {
				t.Fatalf("pass %d %s: bodies diverge:\ncached: %s\nplain:  %s", pass, q, cBody, pBody)
			}
		}
	}
	if st := cached.cache.Stats(); st.Hits < int64(len(queries)) {
		t.Fatalf("second pass not served from cache: %+v", st)
	}
	epoch0 := cached.eng.Epoch()

	// Kill a shard that is not the warm doc's home (the home leg must
	// stay resolvable for the query to degrade rather than fail).
	victim := (f.g.Route(warmDoc) + 1) % f.g.NumShards()
	lt.RemoveHost(eps[victim])

	// A query shape never cached observes the failure: it answers
	// partial, bumps the fleet cache epoch via the degraded-health
	// transition, and must not be stored.
	hits0 := cached.cache.Stats().Hits
	degradedBody := fmt.Sprintf(`{"doc_id": %d, "k": 9}`, warmDoc)
	resp, body := postJSON(t, cachedTS.URL+"/related", degradedBody)
	var rr RelatedResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode degraded response: %v in %s", err, body)
	}
	if resp.StatusCode != http.StatusOK || !rr.PartialResults {
		t.Fatalf("degraded query: status %d partial=%t body %s", resp.StatusCode, rr.PartialResults, body)
	}
	if got := cached.eng.Epoch(); got <= epoch0 {
		t.Fatalf("cache epoch did not advance on degradation: %d → %d", epoch0, got)
	}
	// Repeating it must recompute (a partial was never cached) and
	// still answer partial.
	resp, body = postJSON(t, cachedTS.URL+"/related", degradedBody)
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rr.PartialResults {
		t.Fatalf("repeated degraded query: status %d partial=%t", resp.StatusCode, rr.PartialResults)
	}
	if got := cached.cache.Stats().Hits; got != hits0 {
		t.Fatalf("a partial answer was served from cache: hits %d → %d", hits0, got)
	}

	// The originally warmed query now carries a new epoch in its key:
	// the old complete entry is unreachable, and the fresh answer is an
	// honest partial.
	resp, body = postJSON(t, cachedTS.URL+"/related", warmBody)
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rr.PartialResults {
		t.Fatalf("post-degradation warm query served stale complete answer: status %d partial=%t body %s", resp.StatusCode, rr.PartialResults, body)
	}
	if got := cached.cache.Stats().Hits; got != hits0 {
		t.Fatalf("stale complete entry was hit after epoch advance: hits %d → %d", hits0, got)
	}
}
