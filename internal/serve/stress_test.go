package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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

// TestServeStress is the serve-layer half of the PR 1 concurrency
// guarantee, proved over HTTP on the unsharded pipeline and on a 4-shard
// group: concurrent POST /related and POST /add against the handler
// while scrapers hammer GET /metrics, GET /stats and GET /debug/traces.
// Run under -race (CI does). The scrapers assert the obs contract —
// counters monotone across scrapes, histogram snapshots never torn
// (count == Σ bucket counts, quantiles monotone and within the bucket
// range), traces never torn — while the write path grows the collection,
// and every add is immediately retrievable. On the sharded row, beside
// them: the per-shard counters are monotone and reconcile with the
// totals, /stats reports a consistent shard topology while adds land,
// and captured /related traces carry the scatter-gather events.
func TestServeStress(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 200, Seed: 11})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	const base = 150
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, err := core.Build(texts[:base], core.Config{Seed: 11, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			stressServe(t, p, shards, texts[base:])
		})
	}
}

// stressServe runs the load of TestServeStress against p, built over
// base posts, adding from extra.
func stressServe(t *testing.T, p *core.Pipeline, shards int, extra []string) {
	base := p.Stats().NumDocs
	// SlowQuery 0 → every /related and /add request is captured into the
	// trace ring, the densest configuration for the trace scrapers below.
	ts := httptest.NewServer(New(p, Config{SlowQuery: 0}).Handler())
	defer ts.Close()
	client := ts.Client()

	const (
		queryWorkers  = 4
		addWorkers    = 2
		scrapeWorkers = 2
		traceWorkers  = 2
		queriesEach   = 50
		addsEach      = 14
		scrapesEach   = 25
		traceScrapes  = 25
	)
	var (
		wg       sync.WaitGroup
		failures atomic.Int32
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	// call sends one request (a POST when body is not empty) and decodes
	// the answer into v.
	call := func(path, body string, v any) (int, error) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if body != "" {
			req, err = http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		}
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
	}
	related := func(doc int) (RelatedResponse, int, error) {
		var rr RelatedResponse
		status, err := call("/related", fmt.Sprintf(`{"doc_id": %d, "k": 5}`, doc), &rr)
		return rr, status, err
	}

	// Query workers: every response must be well-formed regardless of
	// how many adds have landed.
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				doc := (w*queriesEach + i*7) % base
				rr, status, err := related(doc)
				if err != nil || status != http.StatusOK {
					fail("related: status %d err %v", status, err)
					return
				}
				for j, r := range rr.Results {
					if r.DocID == doc || r.Score < 0 || math.IsNaN(r.Score) {
						fail("related: bad result %+v for doc %d", r, doc)
						return
					}
					if j > 0 && rr.Results[j-1].Score < r.Score {
						fail("related: unsorted results for doc %d", doc)
						return
					}
				}
			}
		}(w)
	}

	// Add workers: ids come back unique and above the base collection,
	// and every added post is immediately queryable — on the sharded row
	// the directory registered it and its owning shard serves it to the
	// very next scatter.
	var seenIDs sync.Map
	for w := 0; w < addWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < addsEach; i++ {
				var ar AddResponse
				status, err := call("/add", fmt.Sprintf(`{"text": %q}`, extra[(w*addsEach+i)%len(extra)]), &ar)
				if err != nil || status != http.StatusOK {
					fail("add: status %d err %v", status, err)
					return
				}
				if ar.DocID < base {
					fail("add: id %d below base %d", ar.DocID, base)
					return
				}
				if _, dup := seenIDs.LoadOrStore(ar.DocID, true); dup {
					fail("add: duplicate id %d", ar.DocID)
					return
				}
				if rr, status, err := related(ar.DocID); err != nil || status != http.StatusOK || len(rr.Results) == 0 {
					fail("post-add related for %d: status %d err %v, %d results", ar.DocID, status, err, len(rr.Results))
					return
				}
			}
		}(w)
	}

	// Metrics scrapers: the observability contract under concurrency.
	monotone := []string{"http.related.requests", "http.add.requests", "http.metrics.requests", "index.scorepool.get"}
	for s := 0; s < shards; s++ {
		monotone = append(monotone, fmt.Sprintf("shard.%02d.queries", s), fmt.Sprintf("shard.%02d.adds", s))
	}
	for w := 0; w < scrapeWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := map[string]int64{}
			var lastQueryCount int64
			for i := 0; i < scrapesEach; i++ {
				var snap obs.Snapshot
				if status, err := call("/metrics", "", &snap); err != nil || status != http.StatusOK {
					fail("metrics: status %d err %v", status, err)
					return
				}
				for _, name := range monotone {
					v, ok := snap.Counters[name]
					if !ok {
						fail("metrics: counter %q missing", name)
						return
					}
					if v < last[name] {
						fail("metrics: counter %q went backwards: %d -> %d", name, last[name], v)
						return
					}
					last[name] = v
				}
				checkHist := func(section string, h obs.HistogramSnapshot) {
					var sum int64
					for _, b := range h.Buckets {
						sum += b.Count
						if b.Count < 0 {
							fail("metrics: %s negative bucket", section)
						}
					}
					if sum != h.Count {
						fail("metrics: torn %s snapshot: Σbuckets=%d count=%d", section, sum, h.Count)
					}
					if h.Count > 0 && !(h.P50 <= h.P90 && h.P90 <= h.P99) {
						fail("metrics: %s quantiles not monotone: %v %v %v", section, h.P50, h.P90, h.P99)
					}
				}
				for name, h := range snap.Histograms {
					checkHist("histogram "+name, h)
				}
				for name, h := range snap.Spans {
					checkHist("span "+name, h)
				}
				if q := snap.Spans["match.query"].Count; q < lastQueryCount {
					fail("metrics: match.query count went backwards: %d -> %d", lastQueryCount, q)
				} else {
					lastQueryCount = q
				}
				// Interleave a /stats read: doc counts, and on the sharded row
				// the shard topology, must stay consistent while adds land.
				var st StatsResponse
				if _, err := call("/stats", "", &st); err != nil {
					fail("stats: %v", err)
					return
				}
				if st.NumDocs < base {
					fail("stats: NumDocs %d below base %d", st.NumDocs, base)
				}
				if st.Shards != shards || len(st.ShardDocs) != shards {
					fail("stats: %d shards with %d counts, want %d", st.Shards, len(st.ShardDocs), shards)
					return
				}
			}
		}()
	}

	// Trace scrapers: /debug/traces must never serve a torn trace while
	// queries and adds publish into the ring concurrently. Within one
	// scrape every trace id is unique and every trace's events are
	// monotone in At (the trace-side lock guarantees the stored order);
	// across scrapes a re-seen id must carry the identical record
	// (published traces are immutable).
	for w := 0; w < traceWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[string]string{} // trace id → canonical JSON
			for i := 0; i < traceScrapes; i++ {
				var tres TracesResponse
				if status, err := call("/debug/traces", "", &tres); err != nil || status != http.StatusOK {
					fail("traces: status %d err %v", status, err)
					return
				}
				ids := map[string]bool{}
				for _, rec := range tres.Traces {
					if rec.ID == "" {
						fail("traces: record with empty id")
						return
					}
					if ids[rec.ID] {
						fail("traces: id %s appears twice in one scrape", rec.ID)
						return
					}
					ids[rec.ID] = true
					if rec.DurationNS <= 0 {
						fail("traces: %s has non-positive duration %d", rec.ID, rec.DurationNS)
						return
					}
					for j := 1; j < len(rec.Events); j++ {
						if rec.Events[j].At < rec.Events[j-1].At {
							fail("traces: %s events not monotone: %v after %v",
								rec.ID, rec.Events[j].At, rec.Events[j-1].At)
							return
						}
					}
					body, err := json.Marshal(rec)
					if err != nil {
						fail("traces: re-marshal: %v", err)
						return
					}
					if prev, ok := seen[rec.ID]; ok && prev != string(body) {
						fail("traces: id %s changed between scrapes:\n%s\nvs\n%s", rec.ID, prev, body)
						return
					}
					seen[rec.ID] = string(body)
				}
			}
		}()
	}

	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failures under concurrent serve load", failures.Load())
	}

	// Post-conditions: the counters reflect the full load.
	snap := obs.Default.Snapshot()
	wantQueries := int64(queryWorkers * queriesEach)
	if got := snap.Counters["http.related.requests"]; got < wantQueries {
		t.Errorf("http.related.requests = %d, want ≥ %d", got, wantQueries)
	}
	wantAdds := int64(addWorkers * addsEach)
	if got := snap.Counters["http.add.requests"]; got < wantAdds {
		t.Errorf("http.add.requests = %d, want ≥ %d", got, wantAdds)
	}
	if got := snap.Spans["match.add.commit"].Count; got < wantAdds {
		t.Errorf("match.add.commit count = %d, want ≥ %d", got, wantAdds)
	}
	// SlowQuery 0 arms a speculative trace on every /related and /add.
	if got := snap.Counters["http.traces.started"]; got < wantQueries+wantAdds {
		t.Errorf("http.traces.started = %d, want ≥ %d", got, wantQueries+wantAdds)
	}
	if st := p.Stats(); st.NumDocs != base+int(wantAdds) {
		t.Errorf("final NumDocs = %d, want %d", st.NumDocs, base+int(wantAdds))
	}
	if shards == 0 {
		return
	}
	// Each of the shards answers every scatter, so per-shard query counts
	// are each ≥ the /related request count, and the shard add counters
	// sum to the adds.
	var addSum int64
	for s := 0; s < shards; s++ {
		if q := snap.Counters[fmt.Sprintf("shard.%02d.queries", s)]; q < wantQueries {
			t.Errorf("shard %d answered %d scatter legs, want ≥ %d", s, q, wantQueries)
		}
		addSum += snap.Counters[fmt.Sprintf("shard.%02d.adds", s)]
	}
	if addSum < wantAdds {
		t.Errorf("per-shard add counters sum to %d, want ≥ %d", addSum, wantAdds)
	}
	if got := snap.Spans["shard.related"].Count; got < wantQueries {
		t.Errorf("shard.related span count = %d, want ≥ %d", got, wantQueries)
	}
	sum := 0
	for _, c := range p.ShardDocs() {
		sum += c
	}
	if sum != base+int(wantAdds) {
		t.Errorf("ShardDocs sums to %d, want %d", sum, base+int(wantAdds))
	}
	// The captured /related traces carry the scatter-gather events.
	var tres TracesResponse
	if _, err := call("/debug/traces", "", &tres); err != nil {
		t.Fatal(err)
	}
	for _, rec := range tres.Traces {
		for _, ev := range rec.Events {
			if ev.Name == "shard.merge" || ev.Name == "shard.list" {
				return
			}
		}
	}
	t.Error("no captured trace carries shard.list/shard.merge events")
}

// TestRecycledTracesStress is the evidence obs.Tracer's trace pool asks
// for: with slow capture armed and nothing slow, every request's trace
// is dropped by Finish and handed to a later request, so a goroutine
// that kept writing to a trace past its request — a scatter leg, a
// hedged RPC, a singleflight compute — would be writing into someone
// else's. The pool resets a trace without its lock, which makes such a
// writer a data race; this test gives the detector (CI runs -race)
// every engine to find one in: the unsharded pipeline, the 4-shard
// group and a coordinator whose every shard has a replica to hedge to,
// each behind the cache, singleflight and admission, under concurrent
// /related (plain and explained) and /add.
func TestRecycledTracesStress(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	lt := fleet.NewLocalTransport()
	var topo fleet.Topology
	for s, h := range fleetBackend().hosts {
		primary, replica := fmt.Sprintf("recycle-p%d", s), fmt.Sprintf("recycle-r%d", s)
		lt.AddHost(primary, h)
		lt.AddHost(replica, h)
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: primary, Replicas: []string{replica}})
	}
	coordinator, err := fleet.New(context.Background(), topo, fleet.Options{Transport: lt, HedgeAfter: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 120
	adds := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 40, Seed: 27})
	for name, eng := range map[string]Engine{
		"unsharded":   freshHygienePipeline(t, docs, 0),
		"shards=4":    freshHygienePipeline(t, docs, 4),
		"coordinator": coordinator,
	} {
		srv := New(eng, Config{SlowQuery: time.Hour, CacheEntries: 16, MaxInflight: 3, MaxQueued: 64})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					path, body := "/related", fmt.Sprintf(`{"doc_id": %d, "k": %d, "explain": %t}`, (w*31+i*7)%docs, 3+i%2*2, i%5 == 0)
					if i%12 == 11 && name != "coordinator" {
						text, _ := json.Marshal(AddRequest{Text: adds[(w*5+i/12)%len(adds)].Text})
						path, body = "/add", string(text)
					}
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Errorf("%s: %s %s answered %d %s", name, path, body, rec.Code, rec.Body)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if kept := len(srv.tracer.Snapshot()); kept != 0 {
			t.Errorf("%s: %d traces published; every one should have been recycled", name, kept)
		}
	}
}
