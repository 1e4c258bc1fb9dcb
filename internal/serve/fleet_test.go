package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/shard"
)

// End-to-end tests of the networked fleet's HTTP surfaces: real
// ShardServers on real sockets, the real HTTPTransport, and a Server over
// the coordinator. What a healthy or degraded fleet answers /related with
// is the model test's (TestEnginesMatchModel); these pin the shard
// surface itself, typed errors across the socket, and cancellation.

// fleetFixture shares one sharded build across the fleet HTTP tests.
type fleetFixture struct {
	g     *shard.Group
	hosts map[int]*fleet.Host
}

var fleetBackend = sync.OnceValue(func() *fleetFixture {
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 150, Seed: 42})
	docs := make([]*segment.Doc, len(posts))
	for i, p := range posts {
		docs[i] = segment.NewDoc(p.Text)
	}
	mr := match.NewMR("IntentIntent-MR", docs, match.MRConfig{Seed: 42})
	g, err := shard.NewGroup(mr, 4, 42)
	if err != nil {
		panic(err)
	}
	return &fleetFixture{g: g, hosts: fleet.HostsForGroup(g)}
})

// typedError decodes the typed error envelope.
func typedError(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var e struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("not a typed error envelope: %v in %s", err, body)
	}
	return e.Error
}

func TestFleetServeEndToEnd(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	f := fleetBackend()

	shardTS := make([]*httptest.Server, f.g.NumShards())
	topo := fleet.Topology{}
	for s := 0; s < f.g.NumShards(); s++ {
		shardTS[s] = httptest.NewServer(NewShardServer(f.hosts[s], Config{}).Handler())
		t.Cleanup(shardTS[s].Close)
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: shardTS[s].URL})
	}
	c, err := fleet.New(context.Background(), topo, fleet.Options{Transport: fleet.NewHTTPTransport()})
	if err != nil {
		t.Fatalf("fleet.New over HTTP: %v", err)
	}
	fleetTS := httptest.NewServer(New(c, Config{}).Handler())
	t.Cleanup(fleetTS.Close)

	t.Run("shard-surface", func(t *testing.T) {
		resp, err := http.Get(shardTS[1].URL + fleet.PathMeta)
		if err != nil {
			t.Fatal(err)
		}
		var m fleet.Meta
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("meta decode: %v", err)
		}
		resp.Body.Close()
		if m.TotalShards != 4 || len(m.Shards) != 1 || m.Shards[0] != 1 || m.Epoch != c.SnapshotEpoch() {
			t.Fatalf("unexpected meta: %+v", m)
		}

		resp, body := postJSON(t, shardTS[1].URL+fleet.PathHome, `{"shard": 1, "local_doc": 999999, "k": 5}`)
		if resp.StatusCode != http.StatusNotFound || typedError(t, body).Kind != "unknown_doc" {
			t.Fatalf("unknown doc: status %d body %s", resp.StatusCode, body)
		}
		resp, body = postJSON(t, shardTS[1].URL+fleet.PathProbe, `{"shard": 2, "probes": [], "depth": 10}`)
		if resp.StatusCode != http.StatusMisdirectedRequest || typedError(t, body).Kind != "not_owned" {
			t.Fatalf("misdirected probe: status %d body %s", resp.StatusCode, body)
		}
		resp, body = postJSON(t, shardTS[1].URL+fleet.PathHome, `{bad json`)
		if resp.StatusCode != http.StatusBadRequest || typedError(t, body).Kind != "bad_request" {
			t.Fatalf("bad json: status %d body %s", resp.StatusCode, body)
		}
	})

	// The contract table (contract_test.go) covers the coordinator's
	// public surface on LocalTransport; what a real socket adds is the
	// transport rebuilding a shard's typed 404 from its envelope.
	t.Run("unknown-doc-over-http", func(t *testing.T) {
		resp, body := postJSON(t, fleetTS.URL+"/related", `{"doc_id": 100000, "k": 5}`)
		if resp.StatusCode != http.StatusNotFound || typedError(t, body).Kind != "unknown_doc" {
			t.Fatalf("unknown doc: status %d body %s", resp.StatusCode, body)
		}
	})
}

// TestFleetServeCancellationReleasesGoroutines drives the real HTTP
// transport against a shard server that black-holes probes, cancels the
// query, and requires the process to return to its goroutine baseline —
// the network-level version of the leg-release guarantee.
func TestFleetServeCancellationReleasesGoroutines(t *testing.T) {
	f := fleetBackend()
	shardTS := make([]*httptest.Server, f.g.NumShards())
	var hanging atomic.Int64 // probe handlers currently parked; polled, not WaitGroup'd (Wait would race with late Adds)
	for s := 0; s < f.g.NumShards(); s++ {
		inner := NewShardServer(f.hosts[s], Config{}).Handler()
		shardTS[s] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == fleet.PathProbe {
				hanging.Add(1)
				defer hanging.Add(-1)
				// Drain the body so the server's background read can detect
				// the client disconnect and cancel r.Context().
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done() // stuck shard: never answers, honors disconnect
				return
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(shardTS[s].Close)
	}
	topo := fleet.Topology{}
	for s := 0; s < f.g.NumShards(); s++ {
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: shardTS[s].URL})
	}
	c, err := fleet.New(context.Background(), topo, fleet.Options{
		Transport: fleet.NewHTTPTransport(),
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Query(ctx, 3, 5, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	releaseDeadline := time.Now().Add(5 * time.Second)
	for hanging.Load() != 0 {
		if time.Now().After(releaseDeadline) {
			t.Fatalf("stuck shard handlers were not released by cancellation: %d still parked", hanging.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardServeAuxSurfaces covers the operational endpoints of the
// shard binary — /metrics in both formats, /healthz — plus the typed
// error path the happy-path equivalence tests never touch, and an explain
// item as it stands since wire version 3: a (document, cluster) pair and
// its probe's terms, answered with the shard's own ExplainDocCluster.
// (When items carried a list divisor, one that left it out divided by
// zero: +Inf, which JSON cannot encode, so a 500 with an empty body. The
// public server's surfaces are in the contract table.)
func TestShardServeAuxSurfaces(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	shardTS := httptest.NewServer(NewShardServer(fleetBackend().hosts[1], Config{}).Handler())
	t.Cleanup(shardTS.Close)

	resp, body := do(t, "GET", shardTS.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("/healthz: status %d body %s", resp.StatusCode, body)
	}
	resp, body = do(t, "GET", shardTS.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/metrics JSON: status %d body %.120s", resp.StatusCode, body)
	}
	resp, body = do(t, "GET", shardTS.URL+"/metrics?format=prometheus", "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != obs.PrometheusContentType || !strings.Contains(string(body), "# TYPE") {
		t.Fatalf("/metrics prometheus: status %d content-type %q body %.120s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	// Explain for a shard this server does not own.
	resp, body = postJSON(t, shardTS.URL+fleet.PathExplain, `{"shard": 3, "items": []}`)
	if resp.StatusCode != http.StatusMisdirectedRequest || typedError(t, body).Kind != "not_owned" {
		t.Fatalf("misdirected explain: status %d body %s", resp.StatusCode, body)
	}
	home, err := fleetBackend().hosts[1].HandleHome(&fleet.HomeRequest{Shard: 1, LocalDoc: 0, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := home.Probes[0]
	req, _ := json.Marshal(fleet.ExplainRequest{Shard: 1, Items: []fleet.ExplainItem{{Cluster: p.Cluster, Terms: p.Terms, QF: p.QF}}})
	resp, body = postJSON(t, shardTS.URL+fleet.PathExplain, string(req))
	var er fleet.ExplainResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &er) != nil || len(er.Items) != 1 {
		t.Fatalf("explain item: status %d body %s", resp.StatusCode, body)
	}
	mr := fleetBackend().g.ShardMR(1)
	if want := mr.ExplainDocCluster(0, mr.QuerySegs(0)[0]); len(want) == 0 || !reflect.DeepEqual(er.Items[0], want) {
		t.Fatalf("explain item answered %v, ExplainDocCluster says %v", er.Items[0], want)
	}
}

// TestWriteErrorMapping pins the error→(status, kind) table of the one
// function that writes an error body.
func TestWriteErrorMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{&fleet.RPCError{Status: http.StatusNotFound, Kind: "unknown_doc", Msg: "x"}, http.StatusNotFound, "unknown_doc"},
		{fmt.Errorf("wrapped: %w", &fleet.RPCError{Status: http.StatusServiceUnavailable, Kind: "fleet_unavailable", Msg: "x"}), http.StatusServiceUnavailable, "fleet_unavailable"},
		{&fleet.RPCError{Status: 0, Kind: "", Msg: "x"}, http.StatusBadGateway, "internal"},
		{core.ErrUnknownDoc, http.StatusNotFound, "unknown_doc"},
		{cache.ErrOverloaded, http.StatusServiceUnavailable, "overloaded"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline"},
		{context.Canceled, 499, "canceled"},
		{errors.New("plain"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, tc.err)
		if rec.Code != tc.status {
			t.Fatalf("%v: status %d, want %d", tc.err, rec.Code, tc.status)
		}
		if got := typedError(t, rec.Body.Bytes()).Kind; got != tc.kind {
			t.Fatalf("%v: kind %q, want %q", tc.err, got, tc.kind)
		}
		if got := rec.Header().Get("Retry-After"); (got == "1") != (tc.kind == "overloaded") {
			t.Fatalf("%v: Retry-After %q", tc.err, got)
		}
	}
}
