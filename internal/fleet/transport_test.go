package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/forum"
	"repro/internal/match"
)

// Tests for the HTTP half of the Transport interface: a coordinator
// bootstraps over a real socket (that it then ranks as over
// LocalTransport is internal/serve's model test), and every failure
// shape — typed error envelopes, prose error bodies, refused
// connections, garbage payloads — must come back as a well-formed
// *RPCError the retry loop can classify.

// hostHandler adapts a Host to the internal HTTP surface, mirroring
// what internal/serve.ShardServer mounts (serve imports this package,
// so these in-package tests re-build the thin mux instead).
func hostHandler(t testing.TB, h *Host) http.Handler {
	t.Helper()
	writeErr := func(w http.ResponseWriter, err error) {
		status, kind := http.StatusInternalServerError, "internal"
		var rpc *RPCError
		if errors.As(err, &rpc) {
			status, kind = rpc.Status, rpc.Kind
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(map[string]map[string]string{
			"error": {"kind": kind, "message": err.Error()},
		})
	}
	writeOK := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(v); err != nil {
			t.Errorf("encode response: %v", err)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/home", func(w http.ResponseWriter, r *http.Request) {
		var req HomeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, badRequest("%v", err))
			return
		}
		resp, err := h.HandleHome(&req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeOK(w, resp)
	})
	mux.HandleFunc("POST /internal/probe", func(w http.ResponseWriter, r *http.Request) {
		var req ProbeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, badRequest("%v", err))
			return
		}
		resp, err := h.HandleProbe(&req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeOK(w, resp)
	})
	mux.HandleFunc("POST /internal/explain", func(w http.ResponseWriter, r *http.Request) {
		var req ExplainRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, badRequest("%v", err))
			return
		}
		resp, err := h.HandleExplain(&req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeOK(w, resp)
	})
	mux.HandleFunc("GET /internal/meta", func(w http.ResponseWriter, r *http.Request) {
		writeOK(w, h.Meta())
	})
	return mux
}

// TestHTTPTransportFleet bootstraps a coordinator over real sockets: it
// must read the same snapshot epoch and topology as one over
// LocalTransport on the very same hosts.
func TestHTTPTransportFleet(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 60, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 2, 42, 0)

	var topo Topology
	for s := 0; s < f.g.NumShards(); s++ {
		ts := httptest.NewServer(hostHandler(t, f.hosts[s]))
		t.Cleanup(ts.Close)
		topo.Endpoints = append(topo.Endpoints, ShardEndpoints{Shard: s, Primary: ts.URL})
	}
	httpC := f.coordinator(t, topo, Options{Transport: NewHTTPTransport()})
	localC := f.coordinator(t, f.topo(0), Options{Transport: f.lt})

	if httpC.SnapshotEpoch() != localC.SnapshotEpoch() || httpC.SnapshotEpoch() == 0 {
		t.Fatalf("epoch over HTTP %d, local %d", httpC.SnapshotEpoch(), localC.SnapshotEpoch())
	}
	if httpC.name != "MR" || httpC.NumShards() != 2 || httpC.NumDocs() != len(docs) {
		t.Fatalf("bootstrap meta diverged: name %q shards %d docs %d",
			httpC.name, httpC.NumShards(), httpC.NumDocs())
	}
}

// TestHTTPTransportErrors pins the classification of every failure
// shape roundTrip can meet.
func TestHTTPTransportErrors(t *testing.T) {
	tr := NewHTTPTransport()
	call := func(f func(deliver func(any, error))) error {
		t.Helper()
		ch := make(chan error, 1)
		f(func(_ any, err error) { ch <- err })
		select {
		case err := <-ch:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("transport never delivered")
			return nil
		}
	}
	wantRPC := func(err error, status int, kind string) *RPCError {
		t.Helper()
		var rpc *RPCError
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
		err := call(func(d func(any, error)) {
			tr.Home(context.Background(), ts.URL, &HomeRequest{K: 5}, func(r *HomeResponse, e error) { d(r, e) })
		})
		rpc := wantRPC(err, http.StatusNotFound, "unknown_doc")
		if !strings.Contains(rpc.Error(), "unknown_doc") {
			t.Fatalf("typed Error() should name the kind: %q", rpc.Error())
		}
		if IsTransient(err) {
			t.Fatalf("404 must be permanent: %v", err)
		}
	})
	t.Run("prose-body", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		defer ts.Close()
		err := call(func(d func(any, error)) {
			tr.Probe(context.Background(), ts.URL, &ProbeRequest{Depth: 1}, func(r *ProbeResponse, e error) { d(r, e) })
		})
		rpc := wantRPC(err, http.StatusInternalServerError, "")
		if !strings.Contains(rpc.Error(), "boom") {
			t.Fatalf("prose Error() should carry the body: %q", rpc.Error())
		}
		if !IsTransient(err) {
			t.Fatalf("500 must be transient: %v", err)
		}
	})
	t.Run("garbage-payload", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("not json"))
		}))
		defer ts.Close()
		err := call(func(d func(any, error)) {
			tr.Explain(context.Background(), ts.URL, &ExplainRequest{}, func(r *ExplainResponse, e error) { d(r, e) })
		})
		wantRPC(err, 0, "decode")
	})
	t.Run("refused", func(t *testing.T) {
		ts := httptest.NewServer(http.NotFoundHandler())
		url := ts.URL
		ts.Close()
		err := call(func(d func(any, error)) {
			tr.Meta(context.Background(), url, func(m *Meta, e error) { d(m, e) })
		})
		wantRPC(err, 0, "dial")
		if !IsTransient(err) {
			t.Fatalf("refused connection must be transient: %v", err)
		}
	})
	t.Run("bad-endpoint", func(t *testing.T) {
		err := call(func(d func(any, error)) {
			tr.Meta(context.Background(), "http://\x00bad", func(m *Meta, e error) { d(m, e) })
		})
		wantRPC(err, 0, "request")
	})
	t.Run("zero-value-client", func(t *testing.T) {
		var zero HTTPTransport
		if zero.client() != http.DefaultClient {
			t.Fatal("zero-value transport must fall back to http.DefaultClient")
		}
	})
}

// TestLocalTransportRemoveHost pins the refused-connection semantics of
// a killed in-process host and the no-delivery contract for canceled
// contexts.
func TestLocalTransportRemoveHost(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 20, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 1, 42, 0)
	f.lt.RemoveHost(epName(0, 0))

	delivered := 0
	wantDial := func(err error) {
		t.Helper()
		delivered++
		var rpc *RPCError
		if !errors.As(err, &rpc) || rpc.Kind != "dial" {
			t.Fatalf("want dial error from removed host, got %v", err)
		}
	}
	ctx := context.Background()
	f.lt.Home(ctx, "s0", &HomeRequest{K: 5}, func(_ *HomeResponse, err error) { wantDial(err) })
	f.lt.Probe(ctx, "s0", &ProbeRequest{Depth: 1}, func(_ *ProbeResponse, err error) { wantDial(err) })
	f.lt.Explain(ctx, "s0", &ExplainRequest{}, func(_ *ExplainResponse, err error) { wantDial(err) })
	f.lt.Meta(ctx, "s0", func(_ *Meta, err error) { wantDial(err) })
	if delivered != 4 {
		t.Fatalf("want 4 dial deliveries, got %d", delivered)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	f.lt.Home(canceled, "s0", &HomeRequest{K: 5}, func(_ *HomeResponse, _ error) { t.Error("delivered after cancel") })
	f.lt.Probe(canceled, "s0", &ProbeRequest{Depth: 1}, func(_ *ProbeResponse, _ error) { t.Error("delivered after cancel") })
	f.lt.Explain(canceled, "s0", &ExplainRequest{}, func(_ *ExplainResponse, _ error) { t.Error("delivered after cancel") })
	f.lt.Meta(canceled, "s0", func(_ *Meta, _ error) { t.Error("delivered after cancel") })
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
		var rpc *RPCError
		if !errors.As(err, &rpc) || rpc.Status != status || rpc.Kind != kind {
			t.Fatalf("want status=%d kind=%q, got %v", status, kind, err)
		}
	}
	if _, err := h.HandleHome(&HomeRequest{Shard: 1, LocalDoc: 0, K: 5}); err == nil {
		t.Fatal("home for a shard this host does not own must fail")
	} else {
		wantKind(err, http.StatusMisdirectedRequest, "not_owned")
		if IsTransient(err) {
			t.Fatalf("not_owned must be permanent: %v", err)
		}
	}
	if _, err := h.HandleHome(&HomeRequest{Shard: 0, LocalDoc: 0, K: 0}); err == nil {
		t.Fatal("home with k=0 must fail")
	} else {
		wantKind(err, http.StatusBadRequest, "bad_request")
	}
	if _, err := h.HandleHome(&HomeRequest{Shard: 0, LocalDoc: 1 << 20, K: 5}); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("home for an absent local doc: want ErrUnknownDoc, got %v", err)
	}
	if _, err := h.HandleProbe(&ProbeRequest{Shard: 1, Depth: 10}); err == nil {
		t.Fatal("probe for an unowned shard must fail")
	} else {
		wantKind(err, http.StatusMisdirectedRequest, "not_owned")
	}
	if _, err := h.HandleProbe(&ProbeRequest{Shard: 0, Depth: 0}); err == nil {
		t.Fatal("probe with depth=0 must fail")
	} else {
		wantKind(err, http.StatusBadRequest, "bad_request")
	}
	probes := []WireProbe{{Cluster: 0, Terms: []string{"a"}, QF: []float64{1}, IDF: []float64{1}}}
	if _, err := h.HandleProbe(&ProbeRequest{Shard: 0, Depth: 10, Probes: probes, Floors: []float64{1, 2}}); err == nil {
		t.Fatal("probe with mismatched floors must fail")
	} else {
		wantKind(err, http.StatusBadRequest, "bad_request")
	}
	if _, err := h.HandleExplain(&ExplainRequest{Shard: 1}); err == nil {
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
	home, err := h.HandleHome(&HomeRequest{Shard: 0, LocalDoc: 0, K: 5})
	if err != nil || len(home.Probes) == 0 {
		t.Fatalf("home leg: %d probes, err %v", len(home.Probes), err)
	}
	probe := func(floors []float64) [][]match.Result {
		t.Helper()
		resp, err := h.HandleProbe(&ProbeRequest{Shard: 0, Probes: home.Probes, Depth: home.N, Floors: floors})
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

// TestChaosExplainMetaFaults covers the explain/meta verbs of the
// fault injector directly: scripted errors are delivered, drops are
// black holes, and unscripted calls pass through.
func TestChaosExplainMetaFaults(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 20, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 1, 42, 0)
	clock := NewVirtualClock(time.Unix(0, 0))
	ch := NewChaos(f.lt, clock)

	boom := &RPCError{Status: http.StatusInternalServerError, Kind: "scripted", Msg: "boom"}
	ch.Script("s0", "explain", ChaosAction{Err: boom}, ChaosAction{Drop: true})
	ch.Script("s0", "meta", ChaosAction{Err: boom}, ChaosAction{Drop: true})

	got := 0
	ch.Explain(context.Background(), "s0", &ExplainRequest{}, func(_ *ExplainResponse, err error) {
		got++
		if !errors.Is(err, boom) {
			t.Fatalf("scripted explain error not delivered: %v", err)
		}
	})
	ch.Explain(context.Background(), "s0", &ExplainRequest{}, func(_ *ExplainResponse, _ error) {
		t.Error("dropped explain must never deliver")
	})
	ch.Meta(context.Background(), "s0", func(_ *Meta, err error) {
		got++
		if !errors.Is(err, boom) {
			t.Fatalf("scripted meta error not delivered: %v", err)
		}
	})
	ch.Meta(context.Background(), "s0", func(_ *Meta, _ error) {
		t.Error("dropped meta must never deliver")
	})
	// Script exhausted: the next call passes through to the live host.
	ch.Meta(context.Background(), "s0", func(m *Meta, err error) {
		got++
		if err != nil || m == nil || m.Docs != len(docs) {
			t.Fatalf("pass-through meta: %v / %+v", err, m)
		}
	})
	if got != 3 {
		t.Fatalf("want 3 deliveries, got %d", got)
	}
}

// TestCoordinatorRejectsMalformedReplies: a shard that answers with the
// wrong list count, a foreign snapshot epoch, or an empty delivery must
// be treated as failed — degrading the query to a well-formed partial,
// never merging the bogus lists.
func TestCoordinatorRejectsMalformedReplies(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 40, 42)
	cases := []struct {
		name   string
		tamper func(*ProbeResponse) *ProbeResponse
	}{
		{"truncated-lists", func(r *ProbeResponse) *ProbeResponse {
			r.Lists = r.Lists[:0]
			return r
		}},
		{"foreign-epoch", func(r *ProbeResponse) *ProbeResponse {
			r.Epoch++
			return r
		}},
		{"empty-delivery", func(r *ProbeResponse) *ProbeResponse { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 2, 42, 0)
			c := f.coordinator(t, f.topo(0), vopts(&forger{Transport: f.lt, probe: tc.tamper}, NewVirtualClock(time.Unix(0, 0))))
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
