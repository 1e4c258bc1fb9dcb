package fleet_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Tests for the HTTP half of the Transport interface: a coordinator
// bootstraps over a real socket (that it then ranks as over
// LocalTransport is internal/serve's model test), and every failure
// shape — typed error envelopes, prose error bodies, refused
// connections, garbage payloads — must come back as a well-formed
// *RPCError the retry loop can classify.

// TestHTTPTransportFleet bootstraps a coordinator over real sockets, each
// a shard server of the serving layer, so the transport meets the real
// routes and error envelope: it must read the same snapshot epoch and
// topology as one over LocalTransport on the very same hosts.
func TestHTTPTransportFleet(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 60, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 2, 42, 0)

	var topo fleet.Topology
	for s := 0; s < f.g.NumShards(); s++ {
		ts := httptest.NewServer(serve.NewShardServer(f.hosts[s], serve.Config{}).Handler())
		t.Cleanup(ts.Close)
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: ts.URL})
	}
	httpC := f.coordinator(t, topo, fleet.Options{Transport: fleet.NewHTTPTransport()})
	localC := f.coordinator(t, f.topo(0), fleet.Options{Transport: f.lt})

	if httpC.SnapshotEpoch() != localC.SnapshotEpoch() || httpC.SnapshotEpoch() == 0 {
		t.Fatalf("epoch over HTTP %d, local %d", httpC.SnapshotEpoch(), localC.SnapshotEpoch())
	}
	if httpC.Name() != "MR" || httpC.NumShards() != 2 || httpC.NumDocs() != len(docs) {
		t.Fatalf("bootstrap meta diverged: name %q shards %d docs %d",
			httpC.Name(), httpC.NumShards(), httpC.NumDocs())
	}
}

// TestHTTPTransportErrors pins the classification of every failure
// shape roundTrip can meet.
func TestHTTPTransportErrors(t *testing.T) {
	tr := fleet.NewHTTPTransport()
	call := func(endpoint, path string, req, reply any) error {
		t.Helper()
		ch := make(chan error, 1)
		tr.Call(context.Background(), endpoint, path, req, reply, func(err error) { ch <- err })
		select {
		case err := <-ch:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("transport never delivered")
			return nil
		}
	}
	wantRPC := func(err error, status int, kind string) *fleet.RPCError {
		t.Helper()
		var rpc *fleet.RPCError
		if !errors.As(err, &rpc) {
			t.Fatalf("want *RPCError, got %T: %v", err, err)
		}
		if rpc.Status != status || rpc.Kind != kind {
			t.Fatalf("want status=%d kind=%q, got %v", status, kind, rpc)
		}
		return rpc
	}

	t.Run("typed-envelope", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNotFound)
			_, _ = w.Write([]byte(`{"error": {"kind": "unknown_doc", "message": "document not found"}}`))
		}))
		defer ts.Close()
		err := call(ts.URL, fleet.PathHome, &fleet.HomeRequest{K: 5}, new(fleet.HomeResponse))
		rpc := wantRPC(err, http.StatusNotFound, "unknown_doc")
		if !strings.Contains(rpc.Error(), "unknown_doc") {
			t.Fatalf("typed Error() should name the kind: %q", rpc.Error())
		}
		if fleet.IsTransient(err) {
			t.Fatalf("404 must be permanent: %v", err)
		}
	})
	t.Run("prose-body", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		defer ts.Close()
		err := call(ts.URL, fleet.PathProbe, &fleet.ProbeRequest{Depth: 1}, new(fleet.ProbeResponse))
		rpc := wantRPC(err, http.StatusInternalServerError, "")
		if !strings.Contains(rpc.Error(), "boom") {
			t.Fatalf("prose Error() should carry the body: %q", rpc.Error())
		}
		if !fleet.IsTransient(err) {
			t.Fatalf("500 must be transient: %v", err)
		}
	})
	t.Run("garbage-payload", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("not json"))
		}))
		defer ts.Close()
		err := call(ts.URL, fleet.PathExplain, &fleet.ExplainRequest{}, new(fleet.ExplainResponse))
		wantRPC(err, 0, "decode")
	})
	t.Run("refused", func(t *testing.T) {
		ts := httptest.NewServer(http.NotFoundHandler())
		url := ts.URL
		ts.Close()
		err := call(url, fleet.PathMeta, nil, new(fleet.Meta))
		wantRPC(err, 0, "dial")
		if !fleet.IsTransient(err) {
			t.Fatalf("refused connection must be transient: %v", err)
		}
	})
	t.Run("bad-endpoint", func(t *testing.T) {
		err := call("http://\x00bad", fleet.PathMetrics, nil, new(obs.Snapshot))
		wantRPC(err, 0, "request")
	})
}

// rpcCall is one call of an internal RPC; kind is its Chaos script key.
type rpcCall struct {
	kind, path string
	req, reply any
}

// rpcs is one call of each internal RPC, each with a fresh reply.
func rpcs() []rpcCall {
	return []rpcCall{
		{"home", fleet.PathHome, &fleet.HomeRequest{K: 5}, new(fleet.HomeResponse)},
		{"probe", fleet.PathProbe, &fleet.ProbeRequest{Depth: 1}, new(fleet.ProbeResponse)},
		{"explain", fleet.PathExplain, &fleet.ExplainRequest{}, new(fleet.ExplainResponse)},
		{"meta", fleet.PathMeta, nil, new(fleet.Meta)},
		{"metricsz", fleet.PathMetrics, nil, new(obs.Snapshot)},
	}
}

// TestLocalTransportRemoveHost pins, on every path, the refused-connection
// semantics of a killed in-process host and the no-delivery contract for
// canceled contexts.
func TestLocalTransportRemoveHost(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 20, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 1, 42, 0)
	f.lt.RemoveHost(epName(0, 0))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rpc := range rpcs() {
		delivered := 0
		f.lt.Call(context.Background(), "s0", rpc.path, rpc.req, rpc.reply, func(err error) {
			delivered++
			var re *fleet.RPCError
			if !errors.As(err, &re) || re.Kind != "dial" {
				t.Errorf("%s: want dial error from removed host, got %v", rpc.path, err)
			}
		})
		if delivered != 1 {
			t.Errorf("%s: %d dial deliveries, want 1", rpc.path, delivered)
		}
		f.lt.Call(canceled, "s0", rpc.path, rpc.req, rpc.reply, func(error) {
			t.Errorf("%s: delivered after cancel", rpc.path)
		})
	}
}

// TestHostRequestValidation drives every malformed internal request
// through the Host handlers: each must come back as the documented
// typed error, never a panic or a wrong answer.
func TestHostRequestValidation(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 30, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 2, 42, 0)
	h := f.hosts[0]

	wantKind := func(err error, status int, kind string) {
		t.Helper()
		var rpc *fleet.RPCError
		if !errors.As(err, &rpc) || rpc.Status != status || rpc.Kind != kind {
			t.Fatalf("want status=%d kind=%q, got %v", status, kind, err)
		}
	}
	if _, err := h.HandleHome(&fleet.HomeRequest{Shard: 1, LocalDoc: 0, K: 5}); err == nil {
		t.Fatal("home for a shard this host does not own must fail")
	} else {
		wantKind(err, http.StatusMisdirectedRequest, "not_owned")
		if fleet.IsTransient(err) {
			t.Fatalf("not_owned must be permanent: %v", err)
		}
	}
	if _, err := h.HandleHome(&fleet.HomeRequest{Shard: 0, LocalDoc: 0, K: 0}); err == nil {
		t.Fatal("home with k=0 must fail")
	} else {
		wantKind(err, http.StatusBadRequest, "bad_request")
	}
	if _, err := h.HandleHome(&fleet.HomeRequest{Shard: 0, LocalDoc: 1 << 20, K: 5}); !errors.Is(err, fleet.ErrUnknownDoc) {
		t.Fatalf("home for an absent local doc: want ErrUnknownDoc, got %v", err)
	}
	if _, err := h.HandleProbe(&fleet.ProbeRequest{Shard: 1, Depth: 10}); err == nil {
		t.Fatal("probe for an unowned shard must fail")
	} else {
		wantKind(err, http.StatusMisdirectedRequest, "not_owned")
	}
	if _, err := h.HandleProbe(&fleet.ProbeRequest{Shard: 0, Depth: 0}); err == nil {
		t.Fatal("probe with depth=0 must fail")
	} else {
		wantKind(err, http.StatusBadRequest, "bad_request")
	}
	probes := []fleet.WireProbe{{Cluster: 0, Terms: []string{"a"}, QF: []float64{1}, IDF: []float64{1}}}
	if _, err := h.HandleProbe(&fleet.ProbeRequest{Shard: 0, Depth: 10, Probes: probes, Floors: []float64{1, 2}}); err == nil {
		t.Fatal("probe with mismatched floors must fail")
	} else {
		wantKind(err, http.StatusBadRequest, "bad_request")
	}
	if _, err := h.HandleExplain(&fleet.ExplainRequest{Shard: 1}); err == nil {
		t.Fatal("explain for an unowned shard must fail")
	} else {
		wantKind(err, http.StatusMisdirectedRequest, "not_owned")
	}
	if own := h.Meta().Shards; !slices.Equal(own, []int{0}) {
		t.Fatalf("host 0 owns %v, want exactly shard 0", own)
	}
}

// TestHostProbeFloors pins what a host makes of ProbeRequest.Floors,
// which the index's drain reads as the probe's theta: a zero or negative
// entry bounds nothing, and a positive one returns exactly the entries
// scoring at or above it (an entry at the floor is tie-break material
// for the coordinator's merge).
func TestHostProbeFloors(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 60, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 2, 42, 0)
	h := f.hosts[0]
	home, err := h.HandleHome(&fleet.HomeRequest{Shard: 0, LocalDoc: 0, K: 5})
	if err != nil || len(home.Probes) == 0 {
		t.Fatalf("home leg: %d probes, err %v", len(home.Probes), err)
	}
	probe := func(floors []float64) [][]match.Result {
		t.Helper()
		resp, err := h.HandleProbe(&fleet.ProbeRequest{Shard: 0, Probes: home.Probes, Depth: home.N, Floors: floors})
		if err != nil {
			t.Fatalf("probe with floors %v: %v", floors, err)
		}
		return resp.Lists
	}
	full := probe(nil)
	none, mid := make([]float64, len(full)), make([]float64, len(full))
	want := make([][]match.Result, len(full))
	for i, l := range full {
		if len(l) < 3 {
			t.Fatalf("probe %d: list of %d, too short to cut", i, len(l))
		}
		none[i] = float64(-(i % 2)) // 0 and -1 alike
		mid[i] = l[len(l)/2].Score
		want[i] = l
		for j, r := range l {
			if r.Score < mid[i] {
				want[i] = l[:j]
				break
			}
		}
	}
	if got := probe(none); !reflect.DeepEqual(got, full) {
		t.Errorf("zero and negative floors: %v, want the unbounded %v", got, full)
	}
	if got := probe(mid); !reflect.DeepEqual(got, want) {
		t.Errorf("mid-list floors %v: %v, want %v", mid, got, want)
	}
}

// TestChaosFaults covers every path of the fault injector directly:
// scripted errors are delivered, drops are black holes, and unscripted
// calls pass through to the live host.
func TestChaosFaults(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 20, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 1, 42, 0)
	boom := &fleet.RPCError{Status: http.StatusInternalServerError, Kind: "scripted", Msg: "boom"}
	for _, rpc := range rpcs() {
		ch := fleettest.NewChaos(f.lt, fleettest.NewVirtualClock(time.Unix(0, 0)))
		ch.Script("s0", rpc.kind, fleettest.ChaosAction{Err: boom}, fleettest.ChaosAction{Drop: true})
		var got []error
		for range 3 {
			ch.Call(context.Background(), "s0", rpc.path, rpc.req, rpc.reply, func(err error) { got = append(got, err) })
		}
		if len(got) != 2 || !errors.Is(got[0], boom) {
			t.Fatalf("%s: deliveries %v, want the scripted error, nothing for the drop, then the pass-through", rpc.path, got)
		}
		if got[1] != nil || reflect.ValueOf(rpc.reply).Elem().IsZero() {
			t.Errorf("%s: pass-through %v left reply %+v", rpc.path, got[1], rpc.reply)
		}
	}
}

// TestCoordinatorRejectsMalformedReplies: a shard that answers with the
// wrong list count, a foreign snapshot epoch, or a zero reply must
// be treated as failed — degrading the query to a well-formed partial,
// never merging the bogus lists.
func TestCoordinatorRejectsMalformedReplies(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 40, 42)
	cases := []struct {
		name   string
		tamper func(*fleet.ProbeResponse) *fleet.ProbeResponse
	}{
		{"truncated-lists", func(r *fleet.ProbeResponse) *fleet.ProbeResponse {
			r.Lists = r.Lists[:0]
			return r
		}},
		{"foreign-epoch", func(r *fleet.ProbeResponse) *fleet.ProbeResponse {
			r.Epoch++
			return r
		}},
		{"zero-reply", func(r *fleet.ProbeResponse) *fleet.ProbeResponse { return &fleet.ProbeResponse{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 2, 42, 0)
			c := f.coordinator(t, f.topo(0), vopts(&forger{Transport: f.lt, probe: tc.tamper}, fleettest.NewVirtualClock(time.Unix(0, 0))))
			res, err := c.Query(context.Background(), 3, 5, false)
			if err != nil {
				t.Fatalf("Related under a lying sibling must degrade, not fail: %v", err)
			}
			if !res.Partial || len(res.Missing) != 1 {
				t.Fatalf("want partial with one missing shard, got partial=%v missing=%v", res.Partial, res.Missing)
			}
			home := f.g.Route(3)
			if res.Missing[0] == home {
				t.Fatalf("the home leg does not probe; shard %d cannot be the missing one", home)
			}
		})
	}
}
