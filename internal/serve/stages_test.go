package serve

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// timingNames parses a Server-Timing value into its metric names,
// failing on anything that is not name;dur=<ms with three decimals>.
func timingNames(t *testing.T, value string) []string {
	t.Helper()
	var names []string
	for _, metric := range strings.Split(value, ", ") {
		m := regexp.MustCompile(`^([a-z]+);dur=\d+\.\d{3}$`).FindStringSubmatch(metric)
		if m == nil {
			t.Fatalf("Server-Timing metric %q in %q", metric, value)
		}
		names = append(names, m[1])
	}
	return names
}

// TestStagesOnEveryResponse: the one stage table names what the
// Server-Timing header of every /related and /add response carries (a
// miss, an add, a refusal; a cache hit has none) and what a published
// trace's closing serve.stages event does, hits included — the header's
// stages plus write, stamped with the request's duration.
func TestStagesOnEveryResponse(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	ts := rowServer(t, "unsharded", Config{CacheEntries: 8, MaxInflight: 4})
	for _, tc := range []struct {
		name, path, body string
		status           int
		want             []string
	}{
		{"miss", "/related", `{"doc_id": 3, "k": 5}`, 200, []string{"decode", "cache", "admission", "engine", "encode"}},
		{"hit", "/related", `{"doc_id": 3, "k": 5}`, 200, nil}, // in the trace only: decode, cache, write
		{"add", "/add", `{"text": "my laptop will not boot after the update"}`, 200, []string{"decode", "engine", "encode"}},
		{"refused k", "/related", `{"doc_id": 3, "k": 500}`, 400, []string{"decode"}},
		{"bad JSON", "/add", `{"text": `, 400, []string{"decode"}},
		{"unknown doc", "/related", `{"doc_id": 999999}`, 404, []string{"decode", "cache", "admission", "engine"}},
	} {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d %s", tc.name, resp.StatusCode, body)
		}
		got := []string{"decode", "cache"}
		if value := resp.Header.Get("Server-Timing"); tc.want != nil || value != "" {
			if got = timingNames(t, value); !slices.Equal(got, tc.want) {
				t.Fatalf("%s: Server-Timing stages %v, want %v", tc.name, got, tc.want)
			}
		}

		var tres TracesResponse
		getJSON(t, ts.URL+"/debug/traces", &tres)
		rec := tres.Traces[0] // newest first
		last := rec.Events[len(rec.Events)-1]
		var traced []string
		for _, a := range last.Attrs {
			if a.Int <= 0 || !slices.Contains(Stages[:], a.Key) {
				t.Fatalf("%s: serve.stages attribute %+v", tc.name, a)
			}
			traced = append(traced, a.Key)
		}
		if last.Name != "serve.stages" || int64(last.At) != rec.DurationNS || !slices.Equal(traced, append(got, "write")) {
			t.Fatalf("%s: closing event %+v of a %d ns trace, want serve.stages over %v + write", tc.name, last, rec.DurationNS, got)
		}
	}
	// The untimed endpoints carry no header.
	if resp := getJSON(t, ts.URL+"/stats", nil); resp.Header.Get("Server-Timing") != "" || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("/stats headers: %v", resp.Header)
	}
}

// TestStageTableMatchesBench holds the table and the benchmark to one
// vocabulary. bench/layers.go times a request from outside under the
// names below; each is spelled out here as the stages it spans, so a
// metric the bench gains, renames or drops fails this test until the
// table's account of it is written down (layers.go is read, not
// imported: bench is a main package, and frozen).
func TestStageTableMatchesBench(t *testing.T) {
	src, err := os.ReadFile("../../bench/layers.go")
	if err != nil {
		t.Fatal(err)
	}
	all, inner := Stages[:], []string{"engine"}
	var outer []string
	for _, s := range all {
		if s != "engine" {
			outer = append(outer, s)
		}
	}
	spans := map[string][]string{
		"serve.related_us": all, "serve.add_us": all, // the handler call
		"serve.self_us":   outer, // … minus the call into core
		"core.related_us": inner, "core.add_us": inner,
		// Inside the engine stage, on the bench's own matcher.
		"match.related_us": inner, "match.prep_us": inner, "match.alg1_us": inner,
		"match.add_prepare_us": inner, "match.add_commit_us": inner,
	}
	found := map[string]bool{}
	for _, name := range regexp.MustCompile(`"((?:serve|core|match)\.[a-z0-9_]+_us)"`).FindAllStringSubmatch(string(src), -1) {
		found[name[1]] = true
		if spans[name[1]] == nil {
			t.Errorf("bench/layers.go times %s, which the stage table has no account of", name[1])
		}
	}
	for name, stages := range spans {
		if !found[name] {
			t.Errorf("the stage table accounts for %s, which bench/layers.go no longer times", name)
		}
		for _, s := range stages {
			if !slices.Contains(all, s) {
				t.Errorf("%s spans %q, which is not a stage", name, s)
			}
		}
	}
}
