package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/forum"
	"repro/internal/obs"
)

// testPipeline builds one shared intention pipeline for the endpoint
// tests (the build is the expensive part; the handlers are cheap).
var testPipeline = sync.OnceValue(func() *core.Pipeline {
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 150, Seed: 42})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	p, err := core.Build(texts, core.Config{Seed: 42})
	if err != nil {
		panic(err)
	}
	return p
})

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	return newTestServerCfg(t, Config{})
}

// newTestServerCfg serves the shared test pipeline with a specific
// observability configuration (each server has its own tracer and
// logger; only the obs registry is process-global).
func newTestServerCfg(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	ts := httptest.NewServer(New(testPipeline(), cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	return do(t, http.MethodPost, url, body)
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var st StatsResponse
	if resp := getJSON(t, ts.URL+"/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st.Method != "IntentIntent-MR" {
		t.Fatalf("method = %q", st.Method)
	}
	if st.NumDocs < 150 || st.NumSegments == 0 || st.NumClusters == 0 {
		t.Fatalf("implausible sizes: %+v", st)
	}
	for _, phase := range []string{"preprocess", "segmentation", "vectorization", "clustering", "refinement", "grouping", "indexing"} {
		if _, ok := st.PhaseNS[phase]; !ok {
			t.Fatalf("phase_ns missing %q", phase)
		}
	}
	if len(st.Granularity.Before) == 0 || len(st.Granularity.After) == 0 {
		t.Fatalf("empty granularity: %+v", st.Granularity)
	}
	var sum float64
	for _, v := range st.Granularity.After {
		sum += v
	}
	if sum < 99.0 || sum > 101.0 {
		t.Fatalf("granularity percentages sum to %v, want ~100", sum)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Drive one query so the spans are non-empty.
	postJSON(t, ts.URL+"/related", `{"doc_id": 1, "k": 3}`)
	var snap obs.Snapshot
	if resp := getJSON(t, ts.URL+"/metrics", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if snap.Counters["http.related.requests"] == 0 {
		t.Fatal("http.related.requests not counted")
	}
	if snap.Spans["core.related"].Count == 0 {
		t.Fatal("core.related span empty after a query")
	}
	if snap.Spans["match.query"].Count == 0 {
		t.Fatal("match.query span empty after a query")
	}
	if snap.Histograms["index.query.candidates"].Count == 0 {
		t.Fatal("index.query.candidates empty after a query")
	}
}
