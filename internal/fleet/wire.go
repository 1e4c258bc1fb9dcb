package fleet

import (
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/obs"
)

// WireVersion is the fleet's internal RPC protocol version. Every
// process of a fleet is built from one tree, so there is no
// negotiation: a shard server reports the version on /internal/meta and
// the coordinator refuses to bootstrap against any other value
// (wire_mismatch) rather than guess which fields the peer decodes.
// Version 2 carries trace propagation: requests may carry a trace id +
// sampling flag, replies may carry the shard-side event list; all trace
// fields are omitempty, so an untraced request does not pay for them.
// Version 3 drops the Algorithm 2 knobs from Meta and the list divisor
// from ExplainItem: every fleet sums raw n = 2k lists.
const WireVersion = 3

// Wire types for the shard fleet's internal RPC surface. Everything
// crossing the network is plain JSON: Go's encoder emits the shortest
// decimal that round-trips each float64, so scores survive the hop
// bit-identically and the coordinator's merge stays byte-for-byte
// equivalent to the in-process scatter-gather (the property the
// equivalence matrix pins).
//
// This file is also the string boundary. Inside a process a probe names
// terms by ids of the matcher's dictionary; processes do not share one,
// so on the wire a term is its string, and each side converts against
// the dictionary of the shard it serves (toWireProbes, wireTerms). A
// term the receiver has never seen becomes -1, an id no posting list
// carries — it still holds its place in the Eq 9 summation order.

// WireProbe is one Algorithm 1 probe in transit: match.ClusterQuery
// with its terms spelled out.
type WireProbe struct {
	Cluster   int       `json:"cluster"`
	Terms     []string  `json:"terms"`
	QF        []float64 `json:"qf"`
	IDF       []float64 `json:"idf"`
	AvgUnique float64   `json:"avg_unique"`
}

// HomeRequest asks a document's owning shard to run the query's home
// leg: resolve the Algorithm 1 probes (frozen factors included) and
// scan its own partition with the reference document excluded.
type HomeRequest struct {
	Shard    int `json:"shard"`
	LocalDoc int `json:"local_doc"`
	K        int `json:"k"`
	// TraceID correlates the shard-side child trace with the
	// coordinator's trace; Trace asks the server to record one. Both
	// absent on untraced requests.
	TraceID string `json:"trace_id,omitempty"`
	Trace   bool   `json:"trace,omitempty"`
}

// HomeResponse carries the home leg's outcome. Lists holds one list a
// probe, best first, in the answering shard's local document ids. N is
// the full unsharded list depth the server scanned at
// (MRConfig.ListDepth(k)); the coordinator probes every sibling at the
// same depth and merges the lists' first N, which is what keeps the
// networked ranking exactly equivalent to the single index. Docs is the
// answering server's current document count for this shard's
// partition-owner view — the coordinator grows its routing directory up
// to it before mapping local ids.
type HomeResponse struct {
	Probes []WireProbe      `json:"probes"`
	Lists  [][]match.Result `json:"lists"`
	N      int              `json:"n"`
	Epoch  uint64           `json:"epoch"`
	Docs   int              `json:"docs"`
	// Trace is the shard-side child trace's event list when the request
	// asked for one. Event offsets are relative to the server's request
	// receipt — never wall-clock — so the coordinator can stitch them
	// without trusting remote clocks.
	Trace []obs.TraceEvent `json:"trace,omitempty"`
}

// ProbeRequest asks a sibling shard to scan the frozen probes against
// its partition at the given depth, discarding what scores strictly
// below the per-probe floors seeded from the home leg (Host.HandleProbe
// says what a host accepts there).
type ProbeRequest struct {
	Shard   int         `json:"shard"`
	Probes  []WireProbe `json:"probes"`
	Depth   int         `json:"depth"`
	Floors  []float64   `json:"floors,omitempty"`
	TraceID string      `json:"trace_id,omitempty"`
	Trace   bool        `json:"trace,omitempty"`
}

// ProbeResponse is a sibling leg's per-probe candidate lists, as
// HomeResponse.Lists.
type ProbeResponse struct {
	Lists [][]match.Result `json:"lists"`
	Epoch uint64           `json:"epoch"`
	Docs  int              `json:"docs"`
	Trace []obs.TraceEvent `json:"trace,omitempty"`
}

// ExplainItem names one (result document, intention cluster) pair to
// decompose, with the probe's term context.
type ExplainItem struct {
	LocalDoc int       `json:"local_doc"`
	Cluster  int       `json:"cluster"`
	Terms    []string  `json:"terms"`
	QF       []float64 `json:"qf"`
}

// ExplainRequest asks the shard owning a set of result documents for
// term-level Eq 7–9 contribution breakdowns.
type ExplainRequest struct {
	Shard   int           `json:"shard"`
	Items   []ExplainItem `json:"items"`
	TraceID string        `json:"trace_id,omitempty"`
	Trace   bool          `json:"trace,omitempty"`
}

// ExplainResponse carries one contribution list per requested item,
// aligned with ExplainRequest.Items.
type ExplainResponse struct {
	Items [][]match.TermContribution `json:"items"`
	Epoch uint64                     `json:"epoch"`
	Trace []obs.TraceEvent           `json:"trace,omitempty"`
}

// Meta is a shard server's self-description, served on /internal/meta.
// The coordinator bootstraps its topology view from any one server and
// cross-checks the rest: Seed + TotalShards reconstruct the routing
// directory (routing is a pure function of (seed, id, n)), Epoch
// identifies the snapshot lineage, Shards lists which partitions this
// server holds.
type Meta struct {
	Name        string `json:"name"`
	Shards      []int  `json:"shards"`
	TotalShards int    `json:"total_shards"`
	Seed        uint64 `json:"seed"`
	Docs        int    `json:"docs"`
	Clusters    int    `json:"clusters"`
	Epoch       uint64 `json:"epoch"`
	// Wire is the server's RPC protocol version; the coordinator
	// bootstraps only against WireVersion.
	Wire int `json:"wire,omitempty"`
}

// snapshotEpoch is a live group's fleet epoch: a hash of collection
// name, shard count, routing seed and cluster count, but not of the
// document count, which grows under Add. A host loaded from a snapshot
// takes a hash of the file instead (LoadHost).
func snapshotEpoch(name string, totalShards int, seed uint64, clusters int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(totalShards)))
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatUint(seed, 10)))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(clusters)))
	return h.Sum64()
}

// toWireProbes spells resolved probes' terms out of their dictionary.
func toWireProbes(dict *index.Dict, probes []match.ClusterQuery) []WireProbe {
	names := dict.Terms()
	out := make([]WireProbe, len(probes))
	for i, p := range probes {
		terms := make([]string, len(p.Terms))
		for j, t := range p.Terms {
			terms[j] = names.Term(t)
		}
		out[i] = WireProbe{
			Cluster: p.Cluster, Terms: terms, QF: p.QF,
			IDF: p.IDF, AvgUnique: p.AvgUnique,
		}
	}
	return out
}

// wireTerms looks a wire term list up in the receiving dictionary.
func wireTerms(dict *index.Dict, terms []string) []int32 {
	ids := make([]int32, len(terms))
	for i, t := range terms {
		ids[i] = dict.Lookup(t)
	}
	return ids
}

// toClusterQueries rebuilds match probes for the matcher-side scan. It is
// where a host checks the factors it is about to scan by: QF and IDF hold
// one entry per term, and they and AvgUnique are finite and non-negative.
// Anything else is a bad request — unchecked, a short column indexes past
// its end inside the scan.
func toClusterQueries(dict *index.Dict, probes []WireProbe) ([]match.ClusterQuery, error) {
	out := make([]match.ClusterQuery, len(probes))
	for i, p := range probes {
		if err := checkColumns("probe", i, len(p.Terms), p.QF, p.IDF); err != nil {
			return nil, err
		}
		if !finiteNonNegative(p.AvgUnique) {
			return nil, badRequest("probe %d: avg_unique %v is not finite and non-negative", i, p.AvgUnique)
		}
		out[i] = match.ClusterQuery{
			Cluster: p.Cluster, Terms: wireTerms(dict, p.Terms),
			QF: p.QF, IDF: p.IDF, AvgUnique: p.AvgUnique,
		}
	}
	return out, nil
}

// toExplainQuery rebuilds an explain item's probe, under the checks
// toClusterQueries makes of its terms and QF.
func toExplainQuery(dict *index.Dict, i int, it ExplainItem) (match.ClusterQuery, error) {
	if err := checkColumns("explain item", i, len(it.Terms), it.QF); err != nil {
		return match.ClusterQuery{}, err
	}
	return match.ClusterQuery{Cluster: it.Cluster, Terms: wireTerms(dict, it.Terms), QF: it.QF}, nil
}

// checkColumns requires each column to hold one finite, non-negative value
// per term.
func checkColumns(what string, i, terms int, cols ...[]float64) error {
	for _, col := range cols {
		if len(col) != terms {
			return badRequest("%s %d: %d factors for %d terms", what, i, len(col), terms)
		}
		for _, v := range col {
			if !finiteNonNegative(v) {
				return badRequest("%s %d: factor %v is not finite and non-negative", what, i, v)
			}
		}
	}
	return nil
}

func finiteNonNegative(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// finiteScores reports whether every score can cross the wire: JSON has no
// Inf or NaN, and finite factors can still overflow a sum.
func finiteScores(lists [][]match.Result) bool {
	for _, l := range lists {
		for _, r := range l {
			if !(math.Abs(r.Score) <= math.MaxFloat64) {
				return false
			}
		}
	}
	return true
}
