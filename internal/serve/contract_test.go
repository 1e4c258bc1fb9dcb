package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/shard"
)

// The server contract, once, over every engine: serve.New over an
// unsharded pipeline, over a 4-shard pipeline, and over a coordinator on
// LocalTransport must answer one request table with the same status,
// the same typed-envelope kind, and — for 200s — the same bytes. What
// the engines may differ in is named in the table (/add, /stats), not
// discovered by a per-engine suite.

// contractEngine is one engine under the contract test with its two
// servers: defaults, and the hygiene stages on (a cache, and admission
// with one slot and no queue, so a held compute sheds the next miss).
type contractEngine struct {
	name     string
	shards   int  // what /stats reports
	writable bool // /add is accepted; a coordinator refuses, typed
	plain    *httptest.Server
	hygiene  *httptest.Server
	hygSrv   *Server
}

const contractPosts = 120

// contractEngines builds the three engines over one corpus. The
// pipelines are private to the caller (the table ends with an /add).
func contractEngines(t *testing.T) []*contractEngine {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: contractPosts, Seed: 42})
	docs := make([]*segment.Doc, len(posts))
	for i, p := range posts {
		docs[i] = segment.NewDoc(p.Text)
	}
	g, err := shard.NewGroup(match.NewMR("IntentIntent-MR", docs, match.MRConfig{Seed: 42}), 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	lt := fleet.NewLocalTransport()
	topo := fleet.Topology{}
	for s, h := range fleet.HostsForGroup(g) {
		ep := fmt.Sprintf("contract-s%d", s)
		lt.AddHost(ep, h)
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: ep})
	}
	coordinator := func() Engine {
		c, err := fleet.New(context.Background(), topo, fleet.Options{Transport: lt})
		if err != nil {
			t.Fatalf("fleet.New: %v", err)
		}
		return c
	}

	var out []*contractEngine
	for _, e := range []struct {
		name     string
		shards   int
		writable bool
		build    func() Engine
	}{
		{"unsharded", 0, true, func() Engine { return freshHygienePipeline(t, contractPosts, 0) }},
		{"shards=4", 4, true, func() Engine { return freshHygienePipeline(t, contractPosts, 4) }},
		{"coordinator", 4, false, coordinator},
	} {
		ce := &contractEngine{name: e.name, shards: e.shards, writable: e.writable}
		ce.plain = httptest.NewServer(New(e.build(), Config{}).Handler())
		t.Cleanup(ce.plain.Close)
		ce.hygSrv = New(e.build(), Config{CacheEntries: 64, MaxInflight: 1})
		ce.hygiene = httptest.NewServer(ce.hygSrv.Handler())
		t.Cleanup(ce.hygiene.Close)
		out = append(out, ce)
	}
	return out
}

// do issues one request and returns the response (body drained).
func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestServerContract(t *testing.T) {
	engines := contractEngines(t)
	oversized := fmt.Sprintf(`{"text": %q}`, strings.Repeat("x", maxBodyBytes+1024))

	// Read-only table: every engine, both servers, same answer.
	var plainBody []byte // the "plain" row's 200, for the rows that must equal it
	table := []struct {
		name, method, path, body string
		status                   int
		kind                     string                          // typed-envelope kind for errors
		check                    func(t *testing.T, body []byte) // extra shape checks on the (shared) 200 body
	}{
		{name: "plain", method: "POST", path: "/related", body: `{"doc_id": 3, "k": 5}`, status: 200, check: func(t *testing.T, body []byte) {
			var rr RelatedResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
			if rr.DocID != 3 || rr.K != 5 || len(rr.Results) == 0 || len(rr.Results) > 5 {
				t.Fatalf("echo %d/%d with %d results, want 3/5 with 1..5", rr.DocID, rr.K, len(rr.Results))
			}
			for i, r := range rr.Results {
				if r.DocID == 3 || (i > 0 && r.Score > rr.Results[i-1].Score) {
					t.Fatalf("result %d: self-match or not descending: %s", i, body)
				}
			}
			if bytes.Contains(body, []byte(`"explain"`)) || bytes.Contains(body, []byte("partial_results")) {
				t.Fatalf("plain healthy response leaked optional fields: %s", body)
			}
			plainBody = body
		}},
		{name: "explained", method: "POST", path: "/related", body: `{"doc_id": 3, "k": 5, "explain": true}`, status: 200, check: func(t *testing.T, body []byte) {
			var rr RelatedResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
			for i, r := range rr.Results {
				if len(r.Explain) == 0 {
					t.Fatalf("result %d has no explain payload", i)
				}
			}
		}},
		{name: "default k", method: "POST", path: "/related", body: `{"doc_id": 0}`, status: 200, check: func(t *testing.T, body []byte) {
			var rr RelatedResponse
			if err := json.Unmarshal(body, &rr); err != nil || rr.K != 5 {
				t.Fatalf("default k = %d (err %v), want 5", rr.K, err)
			}
		}},
		// What the hand parser must not change: key order and whitespace are
		// free, and — json.Decoder's behaviour, pinned rather than endorsed —
		// nothing past the first value's closing brace is looked at.
		{name: "reordered", method: "POST", path: "/related", body: "\t{\"k\" : 5 ,\r\n \"doc_id\":3}", status: 200, check: func(t *testing.T, body []byte) {
			if !bytes.Equal(body, plainBody) {
				t.Fatalf("reordered keys answered\n%s\nwant the plain body\n%s", body, plainBody)
			}
		}},
		{name: "trailing bytes", method: "POST", path: "/related", body: `{"doc_id": 3, "k": 5} } not JSON`, status: 200, check: func(t *testing.T, body []byte) {
			if !bytes.Equal(body, plainBody) {
				t.Fatalf("trailing bytes answered\n%s\nwant the plain body\n%s", body, plainBody)
			}
		}},
		{name: "bad JSON", method: "POST", path: "/related", body: `{"doc_id": `, status: 400, kind: "bad_request"},
		{name: "float k", method: "POST", path: "/related", body: `{"doc_id": 3, "k": 5.0}`, status: 400, kind: "bad_request"},
		{name: "unknown field", method: "POST", path: "/related", body: `{"doc": 3}`, status: 400, kind: "bad_request"},
		{name: "k too large", method: "POST", path: "/related", body: `{"doc_id": 0, "k": 101}`, status: 400, kind: "bad_request"},
		{name: "k negative", method: "POST", path: "/related", body: `{"doc_id": 0, "k": -2}`, status: 400, kind: "bad_request"},
		{name: "unknown doc", method: "POST", path: "/related", body: `{"doc_id": 999999}`, status: 404, kind: "unknown_doc"},
		{name: "negative doc", method: "POST", path: "/related", body: `{"doc_id": -1}`, status: 404, kind: "unknown_doc"},
		{name: "unknown doc explained", method: "POST", path: "/related", body: `{"doc_id": 999999, "k": 5, "explain": true}`, status: 404, kind: "unknown_doc"},
		{name: "oversized body", method: "POST", path: "/add", body: oversized, status: 413, kind: "too_large"},
		{name: "empty add", method: "POST", path: "/add", body: `{"text": "   "}`, status: 400, kind: "bad_request"},
		{name: "wrong method", method: "GET", path: "/related", status: 405}, // the mux's own answer, not an envelope
		{name: "healthz", method: "GET", path: "/healthz", status: 200},
		{name: "pprof index", method: "GET", path: "/debug/pprof/", status: 200},
		{name: "pprof goroutine", method: "GET", path: "/debug/pprof/goroutine?debug=1", status: 200},
		{name: "traces", method: "GET", path: "/debug/traces", status: 200},
	}
	for _, tc := range table {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, e := range engines {
				for _, ts := range []*httptest.Server{e.plain, e.hygiene} {
					resp, body := do(t, tc.method, ts.URL+tc.path, tc.body)
					if resp.StatusCode != tc.status {
						t.Fatalf("%s: status %d, want %d (body %.200s)", e.name, resp.StatusCode, tc.status, body)
					}
					if tc.kind != "" {
						if got := typedError(t, body); got.Kind != tc.kind || got.Message == "" {
							t.Fatalf("%s: envelope %+v, want kind %q with a message", e.name, got, tc.kind)
						}
					}
					if tc.path != "/related" || tc.status != 200 {
						continue
					}
					// A /related 200 is one byte string, whoever computes it —
					// and the hygiene server's is its cache's first miss.
					if ref == nil {
						ref = body
					} else if !bytes.Equal(ref, body) {
						t.Fatalf("%s diverges from %s:\n%s\nvs\n%s", e.name, engines[0].name, body, ref)
					}
				}
			}
			if tc.check != nil {
				tc.check(t, ref)
			}
		})
	}

	// Shed: with the one admission slot held, the next miss is refused —
	// typed, with the backoff hint — and a cache hit still answers (hits
	// pay no admission). The table left each hygiene server's cache
	// holding its /related 200s, so the plain and the explained query
	// asked again are hits, and must serve the very bytes the default
	// server computes.
	t.Run("shed", func(t *testing.T) {
		for _, e := range engines {
			entered, release := make(chan struct{}), make(chan struct{})
			var first atomic.Bool
			e.hygSrv.testHookCompute = func() {
				if first.CompareAndSwap(false, true) {
					close(entered)
					<-release
				}
			}
			held := make(chan int, 1)
			go func() {
				status, _, _ := rawPost(e.hygiene.URL+"/related", `{"doc_id": 7, "k": 3}`)
				held <- status
			}()
			<-entered
			resp, body := do(t, "POST", e.hygiene.URL+"/related", `{"doc_id": 8, "k": 3}`)
			if resp.StatusCode != http.StatusServiceUnavailable || typedError(t, body).Kind != "overloaded" || resp.Header.Get("Retry-After") != "1" {
				t.Fatalf("%s: shed answered %d %s (Retry-After %q)", e.name, resp.StatusCode, body, resp.Header.Get("Retry-After"))
			}
			for _, q := range []string{`{"doc_id": 3, "k": 5}`, `{"doc_id": 3, "k": 5, "explain": true}`} {
				_, want := do(t, "POST", e.plain.URL+"/related", q)
				if resp, got := do(t, "POST", e.hygiene.URL+"/related", q); resp.StatusCode != 200 || !bytes.Equal(got, want) {
					t.Fatalf("%s %s: cache hit during overload answered %d, not the computed body", e.name, q, resp.StatusCode)
				}
			}
			close(release)
			if status := <-held; status != 200 {
				t.Fatalf("%s: slot holder answered %d", e.name, status)
			}
			e.hygSrv.testHookCompute = nil
		}
	})

	// /stats: each engine's own shape; the hygiene blocks from the server,
	// present exactly when the knobs are on.
	t.Run("stats", func(t *testing.T) {
		for _, e := range engines {
			resp, off := do(t, "GET", e.plain.URL+"/stats", "")
			if resp.StatusCode != 200 {
				t.Fatalf("%s: /stats status %d", e.name, resp.StatusCode)
			}
			for _, field := range []string{`"cache"`, `"cache_epoch"`, `"singleflight"`, `"admission"`} {
				if bytes.Contains(off, []byte(field)) {
					t.Fatalf("%s: default /stats leaked hygiene field %s: %s", e.name, field, off)
				}
			}
			_, on := do(t, "GET", e.hygiene.URL+"/stats", "")
			// Both engines' shapes share these; cache_epoch is the
			// coordinator's alone (its cache key is not its snapshot epoch).
			var ls struct {
				Method     string `json:"method"`
				NumDocs    int    `json:"num_docs"`
				Shards     int    `json:"shards"`
				CacheEpoch uint64 `json:"cache_epoch"`
				cache.LayerStats
			}
			if err := json.Unmarshal(on, &ls); err != nil {
				t.Fatalf("%s: /stats: %v in %s", e.name, err, on)
			}
			if ls.Method != "IntentIntent-MR" || ls.NumDocs != contractPosts {
				t.Fatalf("%s: /stats describes %q with %d docs", e.name, ls.Method, ls.NumDocs)
			}
			if ls.Shards != e.shards {
				t.Fatalf("%s: /stats shards = %d, want %d", e.name, ls.Shards, e.shards)
			}
			if ls.Cache == nil || ls.Singleflight == nil || ls.Admission == nil {
				t.Fatalf("%s: hygiene blocks missing from /stats: %s", e.name, on)
			}
			// The table's two respellings of "plain" and the two hits taken
			// during the shed; one shed.
			if ls.Cache.Capacity != 64 || ls.Cache.Hits != 4 || ls.Cache.HitRate <= 0 || ls.Admission.MaxInflight != 1 || ls.Admission.Shed != 1 {
				t.Fatalf("%s: cache %+v admission %+v", e.name, ls.Cache, ls.Admission)
			}
			if e.writable == (ls.CacheEpoch != 0) {
				t.Fatalf("%s: cache_epoch = %d", e.name, ls.CacheEpoch)
			}
		}
	})

	// /metrics: both formats from every engine; ?scope=fleet is answered
	// by the engine that fronts one and ignored by the others.
	t.Run("metrics", func(t *testing.T) {
		for _, e := range engines {
			resp, body := do(t, "GET", e.plain.URL+"/metrics", "")
			var snap obs.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil || resp.StatusCode != 200 || snap.Counters["http.related.requests"] == 0 || snap.Counters["http.errors"] == 0 {
				t.Fatalf("%s: /metrics JSON: status %d err %v", e.name, resp.StatusCode, err)
			}
			resp, body = do(t, "GET", e.plain.URL+"/metrics?format=prometheus", "")
			if resp.Header.Get("Content-Type") != obs.PrometheusContentType || !bytes.Contains(body, []byte("# TYPE http_related_requests_total counter")) {
				t.Fatalf("%s: /metrics prometheus: content-type %q body %.120s", e.name, resp.Header.Get("Content-Type"), body)
			}
			_, body = do(t, "GET", e.plain.URL+"/metrics?scope=fleet", "")
			if fleetScope := bytes.Contains(body, []byte(`"scope": "fleet"`)); fleetScope == e.writable {
				t.Fatalf("%s: ?scope=fleet answered with the fleet view: %t", e.name, fleetScope)
			}
		}
	})

	// /add last (it moves the writable engines off the shared corpus):
	// accepted with the next id and immediately queryable, or refused
	// with the typed read_only.
	t.Run("add", func(t *testing.T) {
		text, _ := json.Marshal(AddRequest{Text: forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 1, Seed: 7})[0].Text})
		for _, e := range engines {
			resp, body := do(t, "POST", e.hygiene.URL+"/add", string(text))
			if !e.writable {
				if resp.StatusCode != http.StatusNotImplemented || typedError(t, body).Kind != "read_only" {
					t.Fatalf("%s: /add answered %d %s", e.name, resp.StatusCode, body)
				}
				continue
			}
			var ar AddResponse
			if err := json.Unmarshal(body, &ar); err != nil || resp.StatusCode != 200 || ar.DocID != contractPosts {
				t.Fatalf("%s: /add answered %d %s, want id %d", e.name, resp.StatusCode, body, contractPosts)
			}
			resp, body = do(t, "POST", e.hygiene.URL+"/related", fmt.Sprintf(`{"doc_id": %d, "k": 3}`, ar.DocID))
			if resp.StatusCode != 200 {
				t.Fatalf("%s: query of the added doc: %d %s", e.name, resp.StatusCode, body)
			}
		}
	})
}
