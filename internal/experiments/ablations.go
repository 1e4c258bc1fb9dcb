package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/match"
	"repro/internal/segment"
	"repro/internal/variant"
)

// alg2Variant is an Algorithm 2 ablation: per-intention lists of
// factor·k (2k when 0), cut at threshold times each list's best score
// and optionally divided by that best before the sum. The zero value is
// the served shape, n = 2k with raw sums.
type alg2Variant struct {
	factor    int
	threshold float64
	normalize bool
}

// match replays MR.Match under v: the document's probes, their lists,
// then per list in probe order the cut, the divisor and the sums.
func (v alg2Variant) match(mr *match.MR, q, k int) []match.Result {
	scores := map[int]float64{}
	for _, list := range mr.QueryClusterLists(mr.QuerySegs(q), cmp.Or(v.factor, 2)*k, q, nil, nil) {
		norm := 1.0
		if v.normalize && len(list) > 0 && list[0].Score > 0 {
			norm = list[0].Score
		}
		for _, r := range list {
			if v.threshold > 0 && r.Score < v.threshold*list[0].Score {
				break
			}
			scores[r.DocID] += r.Score / norm
		}
	}
	return match.TopKScores(scores, k, q)
}

// ablations sweeps the design choices DESIGN.md calls out beyond the
// paper's own comparisons: grouping algorithm (k-means vs DBSCAN), vector
// representation (Eq 5 half vs full Eq 5+6), the border-selection
// strategy feeding the pipeline, and the Algorithm 2 shapes the served
// path does not take (alg2Variant): n = 1k / 4k, per-list score
// normalization and threshold selection.
func ablations(opt Options) (table, error) {
	configs := []struct {
		name string
		mr   match.MRConfig
		alg2 alg2Variant
	}{
		{name: "default (kmeans-6, Eq5, n=2k)"},
		{name: "DBSCAN grouping (paper)", mr: match.MRConfig{Group: variant.GroupDBSCAN}},
		{name: "full Eq5+6 vectors", mr: match.MRConfig{Vectorize: variant.FullVectors}},
		{name: "kmeans k=4", mr: match.MRConfig{Group: match.GroupKMeans(4)}},
		{name: "kmeans k=10", mr: match.MRConfig{Group: match.GroupKMeans(10)}},
		{name: "n = 1k", alg2: alg2Variant{factor: 1}},
		{name: "n = 4k", alg2: alg2Variant{factor: 4}},
		{name: "normalized lists", alg2: alg2Variant{normalize: true}},
		{name: "Tile borders", mr: match.MRConfig{Strategy: variant.Tile{}}},
		{name: "TopDown borders", mr: match.MRConfig{Strategy: variant.TopDown{}}},
		{name: "plain Greedy (no CM voting)", mr: match.MRConfig{Strategy: segment.Greedy{Plain: true}}},
		{name: "F-stat border score (Tile)", mr: match.MRConfig{Strategy: variant.Tile{Score: variant.FStat{}}}},
		{name: "threshold selection (0.5)", alg2: alg2Variant{factor: 10, threshold: 0.5}},
	}
	t := table{Title: "Ablations: mean precision under design variations", Columns: []string{"Configuration"}}
	t.Rows = make([]row, len(configs))
	for i, c := range configs {
		t.Rows[i].Label = c.name
	}
	for _, d := range allDomains {
		t.Columns = append(t.Columns, d.String())
		ds := newDataset(d, opt.Scale, opt.Seed)
		docs := baseline.Prepare(ds.texts)
		for i, c := range configs {
			mrCfg := c.mr
			mrCfg.Seed = opt.Seed
			mr := match.NewMR(c.name, docs, mrCfg)
			matchFn := mr.Match
			if c.alg2 != (alg2Variant{}) {
				matchFn = func(q, k int) []match.Result { return c.alg2.match(mr, q, k) }
			}
			t.Rows[i].Cells = append(t.Rows[i].Cells, cell{meanPrecision(matchFn, ds, opt), "%.3f"})
		}
	}
	return t, nil
}

// experiment is one runnable id and the runner that makes its table.
type experiment struct {
	id  string
	run func(Options) (table, error)
}

// experimentList is every experiment in paper order; "all" runs them in
// this order.
var experimentList = []experiment{
	{"table2", table2}, {"fig7", fig7}, {"cmvsterm", cmVsTerm}, {"fig8", fig8},
	{"fig9", fig9}, {"table3", table3}, {"fig3", fig3}, {"table4", table4},
	{"fig10", fig10}, {"table5", table5}, {"fig11", fig11}, {"table6", table6},
	{"ablations", ablations}, {"health", health},
}

// Names lists the runnable experiment ids for cmd/experiments.
func Names() []string {
	var names []string
	for _, e := range experimentList {
		names = append(names, e.id)
	}
	return append(names, "all")
}

// Run executes one experiment by id, or every one for "all", and
// returns the rendered report.
func Run(name string, opt Options) (string, error) {
	opt = opt.withDefaults()
	for _, n := range opt.Sizes {
		if n < 1 {
			return "", fmt.Errorf("experiments: collection size %d is below 1", n)
		}
	}
	var out []string
	for _, e := range experimentList {
		if name != e.id && name != "all" {
			continue
		}
		t, err := e.run(opt)
		if err != nil {
			return "", fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, t.render())
	}
	if len(out) == 0 {
		return "", fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return strings.Join(out, "\n"), nil
}
