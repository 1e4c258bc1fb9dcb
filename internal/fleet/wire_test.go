package fleet_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/forum"
	"repro/internal/match"
)

// wireHost is a two-shard backend's host of shard 0 and the probes of a
// real home leg on it: what a sibling probe and an explain item carry.
func wireHost(t testing.TB) (*fleet.Host, []fleet.WireProbe) {
	t.Helper()
	docs := genDocs(t, forum.TechSupport, 40, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 42}, 2, 42, 0)
	h := f.hosts[0]
	home, err := h.HandleHome(&fleet.HomeRequest{Shard: 0, LocalDoc: 0, K: 5})
	if err != nil {
		t.Fatalf("home leg: %v", err)
	}
	for _, p := range home.Probes {
		if len(p.Terms) < 2 {
			t.Fatalf("home probe of %d terms: too short to truncate", len(p.Terms))
		}
	}
	return h, home.Probes
}

// clone deep-copies probes so a case can damage its own.
func clone(probes []fleet.WireProbe) []fleet.WireProbe {
	out := make([]fleet.WireProbe, len(probes))
	for i, p := range probes {
		p.Terms = append([]string(nil), p.Terms...)
		p.QF = append([]float64(nil), p.QF...)
		p.IDF = append([]float64(nil), p.IDF...)
		out[i] = p
	}
	return out
}

func wantBadRequest(t *testing.T, what string, err error) {
	t.Helper()
	var rpc *fleet.RPCError
	if !errors.As(err, &rpc) || rpc.Status != http.StatusBadRequest || rpc.Kind != "bad_request" {
		t.Fatalf("%s: want a 400 bad_request, got %v", what, err)
	}
}

// TestHostRejectsMalformedProbes: a probe or explain item whose factor
// columns do not align with its terms, or hold a value that is not finite
// and non-negative, or add up past the largest float, is a typed 400 —
// never a panic in the scan (a truncated column used to index past its
// end) and never a reply JSON cannot encode.
func TestHostRejectsMalformedProbes(t *testing.T) {
	h, probes := wireHost(t)
	if _, err := h.HandleProbe(&fleet.ProbeRequest{Shard: 0, Probes: probes, Depth: 10}); err != nil {
		t.Fatalf("the undamaged probes: %v", err)
	}
	for _, tc := range []struct {
		name   string
		damage func(p *fleet.WireProbe)
	}{
		{"qf-and-idf-truncated", func(p *fleet.WireProbe) { p.QF, p.IDF = p.QF[:1], p.IDF[:1] }},
		{"qf-truncated", func(p *fleet.WireProbe) { p.QF = p.QF[:1] }},
		{"idf-truncated", func(p *fleet.WireProbe) { p.IDF = p.IDF[:1] }},
		{"qf-too-long", func(p *fleet.WireProbe) { p.QF = append(p.QF, 1) }},
		{"qf-negative", func(p *fleet.WireProbe) { p.QF[1] = -1 }},
		{"qf-nan", func(p *fleet.WireProbe) { p.QF[0] = math.NaN() }},
		{"idf-inf", func(p *fleet.WireProbe) { p.IDF[1] = math.Inf(1) }},
		{"avg-unique-negative", func(p *fleet.WireProbe) { p.AvgUnique = -2 }},
		{"avg-unique-nan", func(p *fleet.WireProbe) { p.AvgUnique = math.NaN() }},
		{"score-overflow", func(p *fleet.WireProbe) {
			for i := range p.QF {
				p.QF[i], p.IDF[i] = math.MaxFloat64, math.MaxFloat64
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := clone(probes)
			tc.damage(&bad[len(bad)-1])
			_, err := h.HandleProbe(&fleet.ProbeRequest{Shard: 0, Probes: bad, Depth: 10})
			wantBadRequest(t, "probe", err)
		})
	}
	p := probes[0]
	item := fleet.ExplainItem{Cluster: p.Cluster, Terms: p.Terms, QF: p.QF}
	if _, err := h.HandleExplain(&fleet.ExplainRequest{Shard: 0, Items: []fleet.ExplainItem{item}}); err != nil {
		t.Fatalf("the undamaged explain item: %v", err)
	}
	for name, qf := range map[string][]float64{"truncated": p.QF[:1], "negative": append([]float64{-1}, p.QF[1:]...)} {
		bad := item
		bad.QF = qf
		_, err := h.HandleExplain(&fleet.ExplainRequest{Shard: 0, Items: []fleet.ExplainItem{item, bad}})
		wantBadRequest(t, "explain item qf "+name, err)
	}
}

// fuzzHostRPC fuzzes one shard-server RPC: the seeds, marshalled, and
// raw start the corpus; each input is decoded as the shard server decodes
// the RPC's body and handled with the shard pinned to the host's own
// (routing is not the payload: a foreign shard is a 421 before anything
// is read). The answer must be a 400 — from the decoder or a typed
// bad_request — or a 200 whose body encodes with as many lists as the
// request asked for (lists counts both); never a panic.
func fuzzHostRPC[Req, Resp any](f *testing.F, seeds []Req, raw string, handle func(*Req) (*Resp, error), lists func(*Req, *Resp) (got, want int)) {
	for _, req := range seeds {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(raw))
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req Req
		if dec.Decode(&req) != nil {
			return // 400 invalid JSON
		}
		resp, err := handle(&req)
		if err != nil {
			wantBadRequest(t, "request", err)
			return
		}
		if got, want := lists(&req, resp); got != want {
			t.Fatalf("%d lists for %d asked", got, want)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("a 200 body that does not encode: %v", err)
		}
	})
}

// FuzzProbeRequest fuzzes /internal/probe: one list a probe.
func FuzzProbeRequest(f *testing.F) {
	h, probes := wireHost(f)
	truncated := clone(probes)
	truncated[0].QF, truncated[0].IDF = truncated[0].QF[:1], truncated[0].IDF[:1]
	fuzzHostRPC(f, []fleet.ProbeRequest{
		{Probes: probes, Depth: 10},
		{Probes: probes[:1], Depth: 3, Floors: []float64{0.5}, Trace: true, TraceID: "t"},
		{Probes: clone(probes)[:1], Depth: 1},
		{},
		{Probes: truncated, Depth: 10},
	}, `{"probes": [{"cluster": 0, "terms": ["a", "b"], "qf": [1e308, 1e308], "idf": [1e308, 1e308]}], "depth": 5}`,
		func(r *fleet.ProbeRequest) (*fleet.ProbeResponse, error) { r.Shard = 0; return h.HandleProbe(r) },
		func(r *fleet.ProbeRequest, p *fleet.ProbeResponse) (int, int) { return len(p.Lists), len(r.Probes) })
}

// FuzzExplainRequest fuzzes /internal/explain: one contribution list an
// item. The first seed is an item without a list divisor, which a wire-2
// host divided by zero, and the raw one an old coordinator's item with
// one, which the decoder now refuses.
func FuzzExplainRequest(f *testing.F) {
	h, probes := wireHost(f)
	p := probes[0]
	fuzzHostRPC(f, []fleet.ExplainRequest{
		{Items: []fleet.ExplainItem{{Cluster: p.Cluster, Terms: p.Terms, QF: p.QF}}},
		{Items: []fleet.ExplainItem{{LocalDoc: 3, Cluster: p.Cluster, Terms: p.Terms[:1], QF: p.QF[:1]}}, Trace: true, TraceID: "t"},
		{},
	}, `{"items": [{"local_doc": 0, "cluster": 0, "terms": ["a"], "qf": [1], "norm": 0}]}`,
		func(r *fleet.ExplainRequest) (*fleet.ExplainResponse, error) { r.Shard = 0; return h.HandleExplain(r) },
		func(r *fleet.ExplainRequest, e *fleet.ExplainResponse) (int, int) { return len(e.Items), len(r.Items) })
}

// TestWireListsGolden pins the bytes of a reply's candidate lists: a
// match.Result crosses the wire as {"d": id, "s": score}, the form wire
// version 3 has always had, and decodes back to itself.
func TestWireListsGolden(t *testing.T) {
	lists := [][]match.Result{{{DocID: 3, Score: 0.5}, {DocID: 1, Score: 0.25}}, {}}
	for _, tc := range []struct {
		reply any
		want  string
	}{
		{&fleet.HomeResponse{Lists: lists, N: 4, Epoch: 9, Docs: 10},
			`{"probes":null,"lists":[[{"d":3,"s":0.5},{"d":1,"s":0.25}],[]],"n":4,"epoch":9,"docs":10}`},
		{&fleet.ProbeResponse{Lists: lists, Epoch: 9, Docs: 10},
			`{"lists":[[{"d":3,"s":0.5},{"d":1,"s":0.25}],[]],"epoch":9,"docs":10}`},
	} {
		b, err := json.Marshal(tc.reply)
		if err != nil || string(b) != tc.want {
			t.Fatalf("%T encodes as %s (err %v), want %s", tc.reply, b, err, tc.want)
		}
	}
	var back fleet.ProbeResponse
	if err := json.Unmarshal([]byte(`{"lists":[[{"d":3,"s":0.5},{"d":1,"s":0.25}],[]]}`), &back); err != nil || !reflect.DeepEqual(back.Lists, lists) {
		t.Fatalf("decoded %v (err %v), want %v", back.Lists, err, lists)
	}
}
