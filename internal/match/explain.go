package match

import (
	"repro/internal/index"
	"repro/internal/obs"
)

// This file is the score-explainability layer: MatchExplained returns,
// alongside the normal top-k result list, a decomposition of every
// result's score into the Eq 7–9 quantities that produced it — one
// contribution per intention cluster (the Algorithm 2 summand), and
// inside each cluster one product per query term (f_q(t) · w(t,unit) ·
// pIDF(t), the Eq 9 factors). The decomposition replays the exact
// query path — same lists, same top-n cutoff, same summation order — so
// the contributions reconcile with the served score to float64 rounding
// (the tests assert 1e-9), and a "why did post X rank above post Y"
// question has a ground-truth answer.

// TermContribution is one query term's share of a cluster contribution:
// Contribution = QueryTF · Weight · IDF.
type TermContribution struct {
	Term         string  `json:"term"`
	QueryTF      float64 `json:"query_tf"`
	Weight       float64 `json:"weight"`
	IDF          float64 `json:"idf"`
	Contribution float64 `json:"contribution"`
}

// ClusterContribution is one intention cluster's share of a result's
// score: the Algorithm 2 summand contributed by the reference
// document's segment in this cluster, with its term-level breakdown.
// Score equals the sum a concurrent-free Match would have added for
// this (result, cluster) pair; the Terms products sum back to Score.
type ClusterContribution struct {
	Cluster int                `json:"cluster"`
	Score   float64            `json:"score"`
	Terms   []TermContribution `json:"terms"`
}

// Explanation decomposes one result's score. The cluster contributions
// appear in the reference document's segment order — the order Match
// sums them in — and their Scores sum to Score exactly.
type Explanation struct {
	DocID    int                   `json:"doc_id"`
	Score    float64               `json:"score"`
	Clusters []ClusterContribution `json:"clusters"`
}

// Explainer is implemented by matchers that can decompose their scores:
// MR, into per-intention-cluster contributions (internal/baseline's
// whole-post matcher implements it over a single pseudo-cluster).
type Explainer interface {
	Matcher
	// MatchExplained returns exactly what Match(docID, k) returns, plus
	// one Explanation per result, index-aligned with the result list. A
	// non-nil tr records the same per-stage events as the plain query.
	MatchExplained(docID, k int, tr *obs.Trace) ([]Result, []Explanation)
}

// MatchExplained implements Explainer: MatchTraced with the score
// decomposition retained (see match for the locking that makes the two
// reconcile).
func (mr *MR) MatchExplained(docID, k int, tr *obs.Trace) ([]Result, []Explanation) {
	return mr.match(docID, k, tr, true)
}

// explainLocked decomposes each result of one query over the
// per-segment lists its score was summed from. Callers hold at least
// the read lock.
func (mr *MR) explainLocked(out []Result, probes []ClusterQuery, lists [][]index.Result) []Explanation {
	exps := make([]Explanation, len(out))
	for ri, r := range out {
		exp := Explanation{DocID: r.DocID, Score: r.Score}
		for i, q := range probes {
			owners := mr.unitDoc[q.Cluster]
			for _, lr := range lists[i] {
				if int(owners[lr.Unit]) != r.DocID {
					continue
				}
				// The refined index holds at most one unit per (doc,
				// cluster), so this is the cluster's whole contribution.
				exp.Clusters = append(exp.Clusters, ClusterContribution{
					Cluster: q.Cluster,
					Score:   lr.Score,
					Terms:   mr.termBreakdown(q, lr.Unit),
				})
				break
			}
		}
		exps[ri] = exp
	}
	return exps
}

// termBreakdown decomposes one (probe, result unit) list score into
// per-term Eq 9 products via the cluster index.
func (mr *MR) termBreakdown(q ClusterQuery, unit int) []TermContribution {
	return termContributions(mr.clusters[q.Cluster].ExplainTerms(q.Terms, q.QF, unit))
}

func termContributions(terms []index.TermScore) []TermContribution {
	out := make([]TermContribution, len(terms))
	for i, ts := range terms {
		out[i] = TermContribution{
			Term:         ts.Term,
			QueryTF:      ts.QueryTF,
			Weight:       ts.Weight,
			IDF:          ts.IDF,
			Contribution: ts.Product,
		}
	}
	return out
}

// ExplainDocCluster decomposes the Algorithm 2 contribution one
// (shard-local) result document receives from one probe (its cluster,
// terms and term frequencies; the frozen factors are not read) — the
// per-shard half of the shard group's explain mode — or returns nil
// when the document has no refined segment in the cluster. The factors
// come from the pool-attached index state the scores came from, so the
// products reconcile exactly as the unsharded MatchExplained's do.
func (mr *MR) ExplainDocCluster(localDoc int, q ClusterQuery) []TermContribution {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	if q.Cluster < 0 || q.Cluster >= len(mr.unitDoc) {
		return nil
	}
	if u, ok := mr.unitOf(q.Cluster, localDoc); ok {
		return mr.termBreakdown(q, u)
	}
	return nil
}
