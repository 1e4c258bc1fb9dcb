package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// rowServer serves a fresh engine of the named row of modelRows under
// cfg, over a socket (each server has its own tracer and logger; only
// the obs registry is process-global).
func rowServer(t *testing.T, name string, cfg Config) *httptest.Server {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	lr := openRow(t, rowNamed(name))
	t.Cleanup(lr.close)
	ts := httptest.NewServer(New(lr.eng, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
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

// TestStatsEndpoint and TestMetricsEndpoint read /stats and /metrics
// over a real connection. What the bodies hold, on every row, is held
// by the contract's stats and metrics legs (contract_test.go).
func TestStatsEndpoint(t *testing.T) {
	ts := rowServer(t, "unsharded", Config{})
	var st StatsResponse
	if resp := getJSON(t, ts.URL+"/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := rowServer(t, "unsharded", Config{})
	var snap obs.Snapshot
	if resp := getJSON(t, ts.URL+"/metrics", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
