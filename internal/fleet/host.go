package fleet

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Host is the server half of the fleet: one process holding one or
// more shard partitions of a collection and answering the internal
// probe surface (home leg, sibling scan, explain, meta). It is
// transport-agnostic — internal/serve wraps it in HTTP handlers, and
// fleettest.LocalTransport calls it directly so the fault-injection
// suite runs a whole fleet in one process with zero sockets.
type Host struct {
	name     string
	total    int
	seed     uint64
	clusters int
	epoch    uint64
	shards   map[int]*match.MR
	docs     func() int

	ctrHome    map[int]*obs.Counter // fleet.host.NN.home: home legs answered
	ctrProbe   map[int]*obs.Counter // fleet.host.NN.probe: sibling scans answered
	ctrExplain map[int]*obs.Counter // fleet.host.NN.explain: explain batches answered
	spanProbe  map[int]*obs.Span    // fleet.host.NN.scan: scan latency (home + sibling)

	// tracer, when set, also publishes remote-requested child traces
	// into the host process's own /debug/traces ring (the shard server
	// wires its per-server tracer in). Without one the trace still runs —
	// its events ship back in the reply — it just isn't retained locally.
	tracer *obs.Tracer
}

// SetTracer attaches the ring remote-requested traces publish into.
func (h *Host) SetTracer(tr *obs.Tracer) { h.tracer = tr }

// openTrace starts the shard-side child trace for a remote request that
// set the trace flag, or returns nil (the free path) when it didn't.
// The trace's clock starts at request receipt, so every event offset is
// remote-relative; the upstream trace id is recorded as an attribute
// for cross-process correlation.
func (h *Host) openTrace(want bool, traceID, kind string, shard int) *obs.Trace {
	if !want {
		return nil
	}
	var t *obs.Trace
	if h.tracer != nil {
		t = h.tracer.StartForced()
	} else {
		t = obs.NewTrace()
	}
	t.Event("host.recv", obs.A("kind", kind), obs.A("remote_trace", traceID), obs.N("shard", int64(shard)))
	return t
}

// closeTrace finishes a child trace and returns its events for the
// reply. Nil-safe (untraced requests pass the nil straight through).
func (h *Host) closeTrace(t *obs.Trace) []obs.TraceEvent {
	if t == nil {
		return nil
	}
	events := t.Events()
	if h.tracer != nil {
		h.tracer.Finish(t)
	}
	return events
}

// newHost assembles a host over already-loaded shard matchers, under
// snapshotEpoch. docs reports the collection's global document count —
// static for snapshot fleets, live for an in-process backend that keeps
// adding. Every matcher must already be attached to pools covering the
// whole collection; that is what makes its scores collection-global.
func newHost(name string, totalShards int, seed uint64, clusters int, shards map[int]*match.MR, docs func() int) *Host {
	h := &Host{
		name:     name,
		total:    totalShards,
		seed:     seed,
		clusters: clusters,
		epoch:    snapshotEpoch(name, totalShards, seed, clusters),
		shards:   shards,
		docs:     docs,

		ctrHome:    make(map[int]*obs.Counter, len(shards)),
		ctrProbe:   make(map[int]*obs.Counter, len(shards)),
		ctrExplain: make(map[int]*obs.Counter, len(shards)),
		spanProbe:  make(map[int]*obs.Span, len(shards)),
	}
	for s := range shards {
		lbl := fmt.Sprintf("fleet.host.%02d", s)
		h.ctrHome[s] = obs.GetOrNewCounter(lbl + ".home")
		h.ctrProbe[s] = obs.GetOrNewCounter(lbl + ".probe")
		h.ctrExplain[s] = obs.GetOrNewCounter(lbl + ".explain")
		h.spanProbe[s] = obs.GetOrNewSpan(lbl + ".scan")
	}
	return h
}

// LoadHost loads a host from the pipeline snapshot at path (core.Save's
// output, of any shard count) serving the shards in own, or every shard
// when own is empty; see core.ReadPart. Its epoch is a hash of the file,
// so hosts share one exactly when they loaded the same snapshot.
func LoadHost(path string, own []int) (*Host, error) {
	part, err := core.ReadPart(path, own)
	if err != nil {
		return nil, err
	}
	h := newHost(part.Method, part.Shards, part.RouteSeed, part.Clusters, part.Owned, func() int { return part.Docs })
	h.epoch = part.Digest
	return h, nil
}

// HostsForGroup wraps a live shard.Group as one Host per shard, all
// sharing the group's matchers and pools — the in-process fleet backend
// of internal/fleet's tests. Its one caller is buildBackend in
// internal/fleet/fleet_test.go.
func HostsForGroup(g *shard.Group) map[int]*Host {
	out := make(map[int]*Host, g.NumShards())
	for s := 0; s < g.NumShards(); s++ {
		out[s] = newHost(g.Name(), g.NumShards(), g.Seed(), g.NumClusters(),
			map[int]*match.MR{s: g.ShardMR(s)}, g.NumDocs)
	}
	return out
}

// Meta implements the /internal/meta self-description.
func (h *Host) Meta() *Meta {
	own := make([]int, 0, len(h.shards))
	for s := range h.shards {
		own = append(own, s)
	}
	for i := 1; i < len(own); i++ { // insertion sort; a host owns a handful
		for j := i; j > 0 && own[j] < own[j-1]; j-- {
			own[j], own[j-1] = own[j-1], own[j]
		}
	}
	return &Meta{
		Name:        h.name,
		Shards:      own,
		TotalShards: h.total,
		Seed:        h.seed,
		Docs:        h.docs(),
		Clusters:    h.clusters,
		Epoch:       h.epoch,
		Wire:        WireVersion,
	}
}

// badRequest builds the typed 400 for malformed internal requests.
func badRequest(format string, args ...any) *RPCError {
	return &RPCError{Status: http.StatusBadRequest, Kind: "bad_request", Msg: fmt.Sprintf(format, args...)}
}

// errNotOwned is the typed failure for probing a shard this host does
// not serve — permanent: retrying the same endpoint cannot help.
func errNotOwned(s int) *RPCError {
	return &RPCError{Status: http.StatusMisdirectedRequest, Kind: "not_owned", Msg: fmt.Sprintf("shard %d not served here", s)}
}

// HandleHome answers a home leg: resolve the reference document's
// frozen probes and scan this shard's partition with the document
// itself excluded, at the full unsharded depth for k.
func (h *Host) HandleHome(req *HomeRequest) (*HomeResponse, error) {
	mr, ok := h.shards[req.Shard]
	if !ok {
		return nil, errNotOwned(req.Shard)
	}
	if req.K <= 0 {
		return nil, badRequest("home leg needs k >= 1, got %d", req.K)
	}
	probes := mr.QuerySegs(req.LocalDoc)
	if probes == nil {
		return nil, ErrUnknownDoc
	}
	n := mr.Config().ListDepth(req.K)
	t := h.openTrace(req.Trace, req.TraceID, "home", req.Shard)
	st := h.spanProbe[req.Shard].Start()
	lists := mr.QueryClusterLists(probes, n, req.LocalDoc, nil, t)
	st.Stop()
	if t != nil {
		t.Event("host.lists", obs.N("probes", int64(len(probes))), obs.N("depth", int64(n)), obs.N("candidates", totalWidth(lists)))
	}
	h.ctrHome[req.Shard].Inc()
	return &HomeResponse{
		Probes: toWireProbes(mr.Dict(), probes),
		Lists:  lists,
		N:      n,
		Epoch:  h.epoch,
		Docs:   h.docs(),
		Trace:  h.closeTrace(t),
	}, nil
}

// totalWidth sums the per-cluster candidate list widths — the merge
// size the coordinator will pay for this leg.
func totalWidth(lists [][]match.Result) int64 {
	var n int64
	for _, l := range lists {
		n += int64(len(l))
	}
	return n
}

// HandleProbe answers a sibling scan: frozen probes against this
// shard's partition, each under an index.Theta seeded from the request's
// floor for it. Floors is empty or one entry per probe; an entry that is
// zero or negative is "no bound", and a positive one must be a proven
// lower bound on the merged list's n-th score (the coordinator sends the
// home list's), because the scan drops what scores strictly below it.
func (h *Host) HandleProbe(req *ProbeRequest) (*ProbeResponse, error) {
	mr, ok := h.shards[req.Shard]
	if !ok {
		return nil, errNotOwned(req.Shard)
	}
	if req.Depth <= 0 {
		return nil, badRequest("probe needs depth >= 1, got %d", req.Depth)
	}
	if len(req.Floors) != 0 && len(req.Floors) != len(req.Probes) {
		return nil, badRequest("floors length %d does not match %d probes", len(req.Floors), len(req.Probes))
	}
	probes, err := toClusterQueries(mr.Dict(), req.Probes)
	if err != nil {
		return nil, err
	}
	t := h.openTrace(req.Trace, req.TraceID, "probe", req.Shard)
	st := h.spanProbe[req.Shard].Start()
	thetas := make([]index.Theta, len(req.Floors))
	for i, f := range req.Floors {
		thetas[i].Raise(f) // from 0: a no-op unless f > 0
	}
	lists := mr.QueryClusterLists(probes, req.Depth, -1, thetas, t)
	st.Stop()
	if t != nil {
		t.Event("host.lists", obs.N("probes", int64(len(probes))), obs.N("depth", int64(req.Depth)), obs.N("candidates", totalWidth(lists)))
	}
	if !finiteScores(lists) {
		h.closeTrace(t)
		return nil, badRequest("probe factors overflow a score")
	}
	h.ctrProbe[req.Shard].Inc()
	return &ProbeResponse{
		Lists: lists,
		Epoch: h.epoch,
		Docs:  h.docs(),
		Trace: h.closeTrace(t),
	}, nil
}

// HandleExplain answers term-level Eq 7–9 breakdowns for result
// documents owned by one of this host's shards.
func (h *Host) HandleExplain(req *ExplainRequest) (*ExplainResponse, error) {
	mr, ok := h.shards[req.Shard]
	if !ok {
		return nil, errNotOwned(req.Shard)
	}
	qs := make([]match.ClusterQuery, len(req.Items))
	for i, it := range req.Items {
		q, err := toExplainQuery(mr.Dict(), i, it)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	t := h.openTrace(req.Trace, req.TraceID, "explain", req.Shard)
	out := make([][]match.TermContribution, len(req.Items))
	for i, it := range req.Items {
		out[i] = mr.ExplainDocCluster(it.LocalDoc, qs[i])
	}
	if t != nil {
		t.Event("host.explained", obs.N("items", int64(len(req.Items))))
	}
	h.ctrExplain[req.Shard].Inc()
	return &ExplainResponse{Items: out, Epoch: h.epoch, Trace: h.closeTrace(t)}, nil
}
