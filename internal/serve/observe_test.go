package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// --- /debug/traces ---

func TestTracesCaptureEveryRequest(t *testing.T) {
	// SlowQuery 0: deterministic capture — every query and add lands in
	// the ring, newest first.
	ts := rowServer(t, "unsharded", Config{SlowQuery: 0})
	const n = 5
	for i := 0; i < n; i++ {
		resp, _ := postJSON(t, ts.URL+"/related", fmt.Sprintf(`{"doc_id": %d, "k": 4}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	var tres TracesResponse
	if resp := getJSON(t, ts.URL+"/debug/traces", &tres); resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status = %d", resp.StatusCode)
	}
	if len(tres.Traces) != n {
		t.Fatalf("captured %d traces, want %d", len(tres.Traces), n)
	}
	for i, rec := range tres.Traces {
		if rec.ID == "" || rec.DurationNS <= 0 {
			t.Fatalf("trace %d malformed: %+v", i, rec)
		}
		if rec.Sampled {
			t.Fatalf("trace %d marked rate-sampled under a slow-capture-only config", i)
		}
		names := map[string]int{}
		for j, ev := range rec.Events {
			names[ev.Name]++
			if j > 0 && ev.At < rec.Events[j-1].At {
				t.Fatalf("trace %d events not monotone", i)
			}
		}
		// A traced MR query records the per-cluster fan-out and merge.
		for _, want := range []string{"index.query", "match.list", "match.merge", "match.topk"} {
			if names[want] == 0 {
				t.Fatalf("trace %d missing %q events (got %v)", i, want, names)
			}
		}
	}
	// Newest first: the most recent query is doc_id n-1... its match.topk
	// event exists; ordering is by publish time, so Start must be
	// non-increasing down the list.
	for i := 1; i < len(tres.Traces); i++ {
		if tres.Traces[i].Start.After(tres.Traces[i-1].Start) {
			t.Fatal("traces not newest-first")
		}
	}

	// An /add request is traced too, with the prepare/commit split.
	_, stream := modelCorpus()
	if resp, _ := postJSON(t, ts.URL+"/add", fmt.Sprintf(`{"text": %q}`, stream[0])); resp.StatusCode != http.StatusOK {
		t.Fatal("add failed")
	}
	getJSON(t, ts.URL+"/debug/traces", &tres)
	if len(tres.Traces) != n+1 {
		t.Fatalf("after add: %d traces, want %d", len(tres.Traces), n+1)
	}
	addNames := map[string]int{}
	for _, ev := range tres.Traces[0].Events {
		addNames[ev.Name]++
	}
	if addNames["add.prepared"] == 0 || addNames["add.committed"] == 0 {
		t.Fatalf("add trace missing prepare/commit events: %v", addNames)
	}
}

// TestExplainedRequestIsTraced is the regression test for explain
// requests being invisible to tracing: the explained query used to run
// without the request's trace, so a captured "explain": true request
// showed no Algorithm 1 / merge events at all. Plain and explained are
// one query path; their traces must carry the same stage events,
// unsharded and sharded.
func TestExplainedRequestIsTraced(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	for row, stages := range map[string][]string{
		"unsharded": {"index.query", "match.list", "match.merge", "match.topk"},
		"shards=4":  {"index.query", "shard.list", "shard.merge", "shard.topk"},
	} {
		ts := rowServer(t, row, Config{SlowQuery: 0})
		for _, q := range []string{`{"doc_id": 3, "k": 4}`, `{"doc_id": 3, "k": 4, "explain": true}`} {
			if resp, body := postJSON(t, ts.URL+"/related", q); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d body %s", row, q, resp.StatusCode, body)
			}
		}
		var tres TracesResponse
		getJSON(t, ts.URL+"/debug/traces", &tres)
		if len(tres.Traces) != 2 {
			t.Fatalf("%s: captured %d traces, want 2", row, len(tres.Traces))
		}
		count := func(rec obs.TraceRecord) map[string]int {
			names := map[string]int{}
			for _, ev := range rec.Events {
				names[ev.Name]++
			}
			return names
		}
		explained, plain := count(tres.Traces[0]), count(tres.Traces[1]) // newest first
		for _, stage := range stages {
			if plain[stage] == 0 || explained[stage] != plain[stage] {
				t.Fatalf("%s: %d %q events on the explained request, %d on the plain one (explained %v)",
					row, explained[stage], stage, plain[stage], explained)
			}
		}
	}
}

func TestTracesDisabled(t *testing.T) {
	// Negative threshold and no rate budget: nothing is ever captured.
	ts := rowServer(t, "unsharded", Config{SlowQuery: -1})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/related", `{"doc_id": 1, "k": 3}`)
	}
	var tres TracesResponse
	getJSON(t, ts.URL+"/debug/traces", &tres)
	if len(tres.Traces) != 0 {
		t.Fatalf("disabled tracer captured %d traces", len(tres.Traces))
	}
}

// --- /metrics content negotiation ---

func TestMetricsPrometheusFormat(t *testing.T) {
	ts := rowServer(t, "unsharded", Config{})
	postJSON(t, ts.URL+"/related", `{"doc_id": 1, "k": 3}`)

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PrometheusContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE http_related_requests_total counter",
		"http_related_requests_total ",
		"# TYPE core_related histogram",
		"core_related_count ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus body missing %q:\n%s", want, body[:min(len(body), 2000)])
		}
	}
	if strings.Contains(body, "http.related") {
		t.Fatal("unsanitized metric name in prometheus output")
	}
}

func TestMetricsAcceptNegotiation(t *testing.T) {
	ts := rowServer(t, "unsharded", Config{})
	// Prometheus's scraper sends Accept: text/plain;version=0.0.4.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("Accept text/plain negotiated %q", ct)
	}
	// An explicit format=json overrides the Accept header.
	req, _ = http.NewRequest("GET", ts.URL+"/metrics?format=json", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("format=json negotiated %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// No Accept header at all stays JSON (curl, browsers send */*).
	resp = getJSON(t, ts.URL+"/metrics", &snap)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default negotiated %q", ct)
	}
}

// --- structured access log ---

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts := rowServer(t, "unsharded", Config{Logger: logger, SlowQuery: 0})

	if resp, _ := postJSON(t, ts.URL+"/related", `{"doc_id": 7, "k": 3}`); resp.StatusCode != http.StatusOK {
		t.Fatal("query failed")
	}
	getJSON(t, ts.URL+"/stats", nil)
	if resp, _ := postJSON(t, ts.URL+"/related", `{"doc_id": -5}`); resp.StatusCode != http.StatusNotFound {
		t.Fatal("expected 404")
	}

	type record struct {
		Msg       string `json:"msg"`
		Endpoint  string `json:"endpoint"`
		Status    int    `json:"status"`
		LatencyNS int64  `json:"latency_ns"`
		TraceID   string `json:"trace_id"`
		DocID     *int   `json:"doc_id"`
		K         *int   `json:"k"`
		Results   *int   `json:"results"`
	}
	var recs []record
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("access log line not JSON: %s", sc.Text())
		}
		recs = append(recs, r)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d access-log records, want 3", len(recs))
	}

	q := recs[0]
	if q.Msg != "request" || q.Endpoint != "/related" || q.Status != 200 {
		t.Fatalf("query record: %+v", q)
	}
	if q.LatencyNS <= 0 {
		t.Fatal("query record has no latency")
	}
	if q.TraceID == "" {
		t.Fatal("traced request logged without trace_id")
	}
	if q.DocID == nil || *q.DocID != 7 || q.K == nil || *q.K != 3 {
		t.Fatalf("query record missing doc_id/k: %+v", q)
	}
	if q.Results == nil || *q.Results < 1 {
		t.Fatalf("query record missing results: %+v", q)
	}
	// The logged trace id must resolve in /debug/traces.
	var tres TracesResponse
	getJSON(t, ts.URL+"/debug/traces", &tres)
	found := false
	for _, rec := range tres.Traces {
		if rec.ID == q.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("logged trace_id %s not in /debug/traces", q.TraceID)
	}

	st := recs[1]
	if st.Endpoint != "/stats" || st.Status != 200 {
		t.Fatalf("stats record: %+v", st)
	}
	if st.TraceID != "" || st.DocID != nil {
		t.Fatalf("stats record carries query-only fields: %+v", st)
	}

	e := recs[2]
	if e.Endpoint != "/related" || e.Status != http.StatusNotFound {
		t.Fatalf("error record: %+v", e)
	}
	if e.DocID == nil || *e.DocID != -5 {
		t.Fatalf("error record missing doc_id: %+v", e)
	}
	if e.Results != nil {
		t.Fatalf("404 record has a results count: %+v", e)
	}
}
