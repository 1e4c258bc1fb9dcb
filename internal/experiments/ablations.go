package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/segment"
	"repro/internal/variant"
)

// AblationRow is one configuration's mean precision on one dataset.
type AblationRow struct {
	Name      string
	Precision map[forum.Domain]float64
}

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

// Ablations sweeps the design choices DESIGN.md calls out beyond the
// paper's own comparisons: grouping algorithm (k-means vs DBSCAN), vector
// representation (Eq 5 half vs full Eq 5+6), the border-selection
// strategy feeding the pipeline, and the Algorithm 2 shapes the served
// path does not take (alg2Variant): n = 1k / 4k, per-list score
// normalization and threshold selection.
func Ablations(opt Options) (string, []AblationRow) {
	opt = opt.withDefaults()
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
	rows := make([]AblationRow, len(configs))
	for i, c := range configs {
		rows[i] = AblationRow{Name: c.name, Precision: map[forum.Domain]float64{}}
	}
	for _, d := range allDomains {
		ds := newDataset(d, opt.Scale, opt.Seed)
		docs := baseline.Prepare(ds.texts, opt.Workers)
		for i, c := range configs {
			mrCfg := c.mr
			mrCfg.Seed = opt.Seed
			mr := match.NewMR(c.name, docs, mrCfg)
			var perQuery []float64
			for q := 0; q < opt.Queries && q < len(ds.posts); q++ {
				rel := forum.RelevantSet(ds.posts, ds.posts[q])
				var res []match.Result
				if c.alg2 == (alg2Variant{}) {
					res = mr.Match(q, 5)
				} else {
					res = c.alg2.match(mr, q, 5)
				}
				perQuery = append(perQuery, eval.Precision(core.TopIDs(res), rel))
			}
			rows[i].Precision[d] = eval.MeanPrecision(perQuery)
		}
	}
	var tblRows [][]string
	for _, r := range rows {
		row := []string{r.Name}
		for _, d := range allDomains {
			row = append(row, f3(r.Precision[d]))
		}
		tblRows = append(tblRows, row)
	}
	header := []string{"Configuration"}
	for _, d := range allDomains {
		header = append(header, d.String())
	}
	out := "Ablations: mean precision under design variations\n" + table(header, tblRows)
	return out, rows
}

// All runs every experiment and concatenates the reports in paper order.
func All(opt Options) string {
	var b strings.Builder
	sections := []func() string{
		func() string { s, _ := Table2(opt); return s },
		func() string { return Fig7(opt) },
		func() string { s, _ := CMvsTerm(opt); return s },
		func() string { s, _ := Fig8(opt); return s },
		func() string { s, _ := Fig9(opt); return s },
		func() string { s, _ := Table3(opt); return s },
		func() string { return Fig3(opt) },
		func() string { s, _ := Table4(opt); return s },
		func() string { return Fig10(opt) },
		func() string { return Table5(opt) },
		func() string { s, _ := Fig11(opt); return s },
		func() string { s, _ := Table6(opt); return s },
		func() string { s, _ := Ablations(opt); return s },
	}
	for i, run := range sections {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(run())
	}
	return b.String()
}

// Names lists the runnable experiment ids for cmd/experiments.
func Names() []string {
	return []string{"table2", "fig7", "cmvsterm", "fig8", "fig9", "table3",
		"fig3", "table4", "fig10", "table5", "fig11", "table6", "ablations", "all"}
}

// Run executes one experiment by id and returns its report.
func Run(name string, opt Options) (string, error) {
	switch name {
	case "table2":
		s, _ := Table2(opt)
		return s, nil
	case "fig7":
		return Fig7(opt), nil
	case "cmvsterm":
		s, _ := CMvsTerm(opt)
		return s, nil
	case "fig8":
		s, _ := Fig8(opt)
		return s, nil
	case "fig9":
		s, _ := Fig9(opt)
		return s, nil
	case "table3":
		s, _ := Table3(opt)
		return s, nil
	case "fig3":
		return Fig3(opt), nil
	case "table4":
		s, _ := Table4(opt)
		return s, nil
	case "fig10":
		return Fig10(opt), nil
	case "table5":
		return Table5(opt), nil
	case "fig11":
		s, _ := Fig11(opt)
		return s, nil
	case "table6":
		s, _ := Table6(opt)
		return s, nil
	case "ablations":
		s, _ := Ablations(opt)
		return s, nil
	case "all":
		return All(opt), nil
	}
	return "", fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}
