package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forum"
	"repro/internal/obs"
)

// Tests of the serving-hygiene layer: the shed and collapse behaviours
// of the singleflight group and bounded admission, which only show up
// under concurrency, driven through the real HTTP handlers. That a
// cached server answers byte for byte what the model says under any
// interleaving of queries, adds, loads and shard failures is the model
// test (TestEnginesMatchModel).

// freshHygienePipeline builds a private pipeline for tests that mutate
// their collection (the shared testPipeline serves many tests, so it
// must never be added to).
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
	// A failure below must not leave the leader parked: ts.Close waits
	// for every request in flight.
	releaseLeader := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseLeader)
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
	// The post-add query has a deadline of its own. An add that leaves
	// the epoch where it was sends it into the parked flight, where it
	// would wait for go test's timeout instead of failing here.
	client := &http.Client{Timeout: 5 * time.Second}
	freshResp, err := client.Post(ts.URL+"/related", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatalf("post-add query: no answer within %v, so it joined the old epoch's parked flight (did the add move the epoch?): %v", client.Timeout, err)
	}
	freshBody, err := io.ReadAll(freshResp.Body)
	freshResp.Body.Close()
	if err != nil || freshResp.StatusCode != http.StatusOK {
		t.Fatalf("post-add query: status %d body %s err %v", freshResp.StatusCode, freshBody, err)
	}
	if fs := srv.flight.Stats(); fs.Leaders != 2 || fs.Followers != m-1 {
		t.Fatalf("post-add flight stats = %+v, want 2 leaders, %d followers", fs, m-1)
	}

	releaseLeader()
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
