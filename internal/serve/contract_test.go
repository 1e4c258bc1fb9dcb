package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
)

// The server contract, once, over every engine a Server fronts: each
// row of modelRows behind its two servers must answer one request table
// with the same status and typed-envelope kind, and every /related 200
// with the model's bytes. What the engines may differ in is named in
// the table (/add, /stats), not discovered by a per-engine suite.

func TestServerContract(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	f := theModel()
	var live []*liveRow
	for _, row := range modelRows {
		lr := openRow(t, row)
		t.Cleanup(lr.close)
		live = append(live, lr)
	}
	oversized := fmt.Sprintf(`{"text": %q}`, strings.Repeat("x", maxBodyBytes+1024))

	// Read-only table: every row, both servers, the same answer.
	table := []struct {
		name, method, path, body string
		status                   int
		kind                     string    // typed-envelope kind for errors
		key                      cache.Key // what a /related 200 answers, in the model's bytes
	}{
		{name: "plain", method: "POST", path: "/related", body: `{"doc_id": 3, "k": 5}`, status: 200, key: cache.Key{Doc: 3, K: 5}},
		{name: "explained", method: "POST", path: "/related", body: `{"doc_id": 3, "k": 5, "explain": true}`, status: 200, key: cache.Key{Doc: 3, K: 5, Explain: true}},
		{name: "default k", method: "POST", path: "/related", body: `{"doc_id": 0}`, status: 200, key: cache.Key{Doc: 0, K: 5}},
		// What the hand parser must not change: key order and whitespace are
		// free, and — json.Decoder's behaviour, pinned rather than endorsed —
		// nothing past the first value's closing brace is looked at.
		{name: "reordered", method: "POST", path: "/related", body: "\t{\"k\" : 5 ,\r\n \"doc_id\":3}", status: 200, key: cache.Key{Doc: 3, K: 5}},
		{name: "trailing bytes", method: "POST", path: "/related", body: `{"doc_id": 3, "k": 5} } not JSON`, status: 200, key: cache.Key{Doc: 3, K: 5}},
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
			for _, lr := range live {
				for si, srv := range lr.srv {
					rec := request(srv, tc.method, tc.path, tc.body)
					if rec.Code != tc.status {
						t.Fatalf("%s on the %s server: status %d, want %d (body %.200s)", lr.name, serverNames[si], rec.Code, tc.status, rec.Body)
					}
					if tc.kind != "" {
						if got := typedError(t, rec.Body.Bytes()); got.Kind != tc.kind || got.Message == "" {
							t.Fatalf("%s on the %s server: envelope %+v, want kind %q with a message", lr.name, serverNames[si], got, tc.kind)
						}
					}
					if tc.path != "/related" || tc.status != 200 {
						continue
					}
					// The cached server's answer is its cache's first miss or a
					// hit of it: the same bytes either way.
					if _, want := lr.want(t, f, tc.key, false); !bytes.Equal(rec.Body.Bytes(), want) {
						t.Fatalf("%s on the %s server answered\n%s\nthe model says\n%s", lr.name, serverNames[si], rec.Body, want)
					}
				}
			}
		})
	}

	// Shed: with the one admission slot held, the next miss is refused —
	// typed, with the backoff hint — and a cache hit still answers (hits
	// pay no admission). The table left each cached server holding its
	// /related 200s, so the plain and the explained query asked again
	// are hits, and must serve the model's bytes.
	t.Run("shed", func(t *testing.T) {
		for _, lr := range live {
			srv := lr.srv[1]
			entered, release := make(chan struct{}), make(chan struct{})
			var first atomic.Bool
			srv.testHookCompute = func() {
				if first.CompareAndSwap(false, true) {
					close(entered)
					<-release
				}
			}
			held := make(chan int, 1)
			go func() { held <- request(srv, "POST", "/related", `{"doc_id": 7, "k": 3}`).Code }()
			<-entered
			shed := request(srv, "POST", "/related", `{"doc_id": 8, "k": 3}`)
			if shed.Code != http.StatusServiceUnavailable || typedError(t, shed.Body.Bytes()).Kind != "overloaded" || shed.Header().Get("Retry-After") != "1" {
				t.Fatalf("%s: shed answered %d %s (Retry-After %q)", lr.name, shed.Code, shed.Body, shed.Header().Get("Retry-After"))
			}
			for _, key := range []cache.Key{{Doc: 3, K: 5}, {Doc: 3, K: 5, Explain: true}} {
				_, want := lr.want(t, f, key, true)
				if got := request(srv, "POST", "/related", fmt.Sprintf(`{"doc_id": %d, "k": %d, "explain": %t}`, key.Doc, key.K, key.Explain)); got.Code != 200 || !bytes.Equal(got.Body.Bytes(), want) {
					t.Fatalf("%s %+v: cache hit during overload answered %d, not the model's body", lr.name, key, got.Code)
				}
			}
			close(release)
			if status := <-held; status != 200 {
				t.Fatalf("%s: slot holder answered %d", lr.name, status)
			}
			srv.testHookCompute = nil
		}
	})

	// /stats: each engine's own shape; the hygiene blocks from the server,
	// present exactly when the knobs are on.
	t.Run("stats", func(t *testing.T) {
		for _, lr := range live {
			off := request(lr.srv[0], "GET", "/stats", "")
			if off.Code != 200 {
				t.Fatalf("%s: /stats status %d", lr.name, off.Code)
			}
			for _, field := range []string{`"cache"`, `"cache_epoch"`, `"singleflight"`, `"admission"`} {
				if bytes.Contains(off.Body.Bytes(), []byte(field)) {
					t.Fatalf("%s: default /stats leaked hygiene field %s: %s", lr.name, field, off.Body)
				}
			}
			on := request(lr.srv[1], "GET", "/stats", "").Body.Bytes()
			// A coordinator's shape shares the method, the sizes and the
			// hygiene blocks; cache_epoch is its alone (its cache key is not
			// its snapshot epoch), the build's phases and Table 3 a
			// pipeline's.
			var ls struct {
				StatsResponse
				CacheEpoch uint64 `json:"cache_epoch"`
			}
			if err := json.Unmarshal(on, &ls); err != nil {
				t.Fatalf("%s: /stats: %v in %s", lr.name, err, on)
			}
			if ls.Method != "IntentIntent-MR" || ls.NumDocs != modelBase || ls.Shards != lr.shards {
				t.Fatalf("%s: /stats describes %q with %d docs over %d shards", lr.name, ls.Method, ls.NumDocs, ls.Shards)
			}
			if ls.Cache == nil || ls.Singleflight == nil || ls.Admission == nil {
				t.Fatalf("%s: hygiene blocks missing from /stats: %s", lr.name, on)
			}
			// The table's two respellings of "plain" and the two hits taken
			// during the shed; one shed.
			if ls.Cache.Capacity != 64 || ls.Cache.Hits != 4 || ls.Cache.HitRate <= 0 || ls.Admission.MaxInflight != 1 || ls.Admission.Shed != 1 {
				t.Fatalf("%s: cache %+v admission %+v", lr.name, ls.Cache, ls.Admission)
			}
			if (lr.fleet == "") == (ls.CacheEpoch != 0) {
				t.Fatalf("%s: cache_epoch = %d", lr.name, ls.CacheEpoch)
			}
			if lr.fleet != "" {
				continue
			}
			if ls.NumSegments == 0 || ls.NumClusters == 0 {
				t.Fatalf("%s: %d segments in %d clusters", lr.name, ls.NumSegments, ls.NumClusters)
			}
			for _, phase := range []string{"preprocess", "segmentation", "vectorization", "clustering", "refinement", "grouping", "indexing"} {
				if _, ok := ls.PhaseNS[phase]; !ok {
					t.Fatalf("%s: phase_ns missing %q", lr.name, phase)
				}
			}
			var sum float64
			for _, v := range ls.Granularity.After {
				sum += v
			}
			if len(ls.Granularity.Before) == 0 || sum < 99 || sum > 101 {
				t.Fatalf("%s: granularity %+v, its shares after refinement summing to %v", lr.name, ls.Granularity, sum)
			}
		}
	})

	// /metrics: both formats from every engine, the table's queries
	// counted and timed down to the index; ?scope=fleet is answered by
	// the engine that fronts one and ignored by the others.
	t.Run("metrics", func(t *testing.T) {
		for _, lr := range live {
			rec := request(lr.srv[0], "GET", "/metrics", "")
			var snap obs.Snapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || rec.Code != 200 {
				t.Fatalf("%s: /metrics JSON: status %d err %v", lr.name, rec.Code, err)
			}
			if snap.Counters["http.related.requests"] == 0 || snap.Counters["http.errors"] == 0 || snap.Spans["core.related"].Count == 0 ||
				snap.Spans["match.query"].Count == 0 || snap.Histograms["index.query.candidates"].Count == 0 {
				t.Fatalf("%s: /metrics counts %d requests and %d errors, times %d core.related and %d match.query, %d index.query.candidates",
					lr.name, snap.Counters["http.related.requests"], snap.Counters["http.errors"], snap.Spans["core.related"].Count,
					snap.Spans["match.query"].Count, snap.Histograms["index.query.candidates"].Count)
			}
			rec = request(lr.srv[0], "GET", "/metrics?format=prometheus", "")
			if rec.Header().Get("Content-Type") != obs.PrometheusContentType || !bytes.Contains(rec.Body.Bytes(), []byte("# TYPE http_related_requests_total counter")) {
				t.Fatalf("%s: /metrics prometheus: content-type %q body %.120s", lr.name, rec.Header().Get("Content-Type"), rec.Body)
			}
			rec = request(lr.srv[0], "GET", "/metrics?scope=fleet", "")
			if fleetScope := bytes.Contains(rec.Body.Bytes(), []byte(`"scope": "fleet"`)); fleetScope != (lr.fleet != "") {
				t.Fatalf("%s: ?scope=fleet answered with the fleet view: %t", lr.name, fleetScope)
			}
		}
	})

	// /add last (it moves the writable engines off the shared corpus):
	// accepted with the next id and answered at once as the model grown
	// by it, or refused with the typed read_only.
	t.Run("add", func(t *testing.T) {
		text, _ := json.Marshal(AddRequest{Text: f.addText(0)})
		for _, lr := range live {
			rec := request(lr.srv[1], "POST", "/add", string(text))
			if lr.fleet != "" {
				if rec.Code != http.StatusNotImplemented || typedError(t, rec.Body.Bytes()).Kind != "read_only" {
					t.Fatalf("%s: /add answered %d %s", lr.name, rec.Code, rec.Body)
				}
				continue
			}
			var ar AddResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil || rec.Code != 200 || ar.DocID != modelBase {
				t.Fatalf("%s: /add answered %d %s, want id %d", lr.name, rec.Code, rec.Body, modelBase)
			}
			lr.p++
			_, want := lr.want(t, f, cache.Key{Doc: ar.DocID, K: 3}, false)
			if got := request(lr.srv[1], "POST", "/related", fmt.Sprintf(`{"doc_id": %d, "k": 3}`, ar.DocID)); !bytes.Equal(got.Body.Bytes(), want) {
				t.Fatalf("%s: the added doc's /related answered %d\n%s\nthe model says\n%s", lr.name, got.Code, got.Body, want)
			}
		}
	})
}
