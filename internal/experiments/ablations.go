package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/segment"
)

// AblationRow is one configuration's mean precision on one dataset.
type AblationRow struct {
	Name      string
	Precision map[forum.Domain]float64
}

// Ablations sweeps the design choices DESIGN.md calls out beyond the
// paper's own comparisons: grouping algorithm (k-means vs DBSCAN), vector
// representation (Eq 5 half vs full Eq 5+6), the n = NFactor·k heuristic,
// per-list score normalization, and the border-selection strategy feeding
// the pipeline.
func Ablations(opt Options) (string, []AblationRow) {
	opt = opt.withDefaults()
	configs := []struct {
		name string
		mr   match.MRConfig
	}{
		{"default (kmeans-6, Eq5, n=2k)", match.MRConfig{}},
		{"DBSCAN grouping (paper)", match.MRConfig{Grouper: match.GroupDBSCAN}},
		{"full Eq5+6 vectors", match.MRConfig{FullVectors: true}},
		{"kmeans k=4", match.MRConfig{KMeansK: 4}},
		{"kmeans k=10", match.MRConfig{KMeansK: 10}},
		{"n = 1k", match.MRConfig{NFactor: 1}},
		{"n = 4k", match.MRConfig{NFactor: 4}},
		{"normalized lists", match.MRConfig{NormalizeLists: true}},
		{"Tile borders", match.MRConfig{Strategy: segment.Tile{}}},
		{"TopDown borders", match.MRConfig{Strategy: segment.TopDown{}}},
		{"plain Greedy (no CM voting)", match.MRConfig{Strategy: segment.Greedy{Plain: true}}},
		{"F-stat border score (Tile)", match.MRConfig{Strategy: segment.Tile{Score: segment.FStat{}}}},
		{"threshold selection (0.5)", match.MRConfig{ScoreThreshold: 0.5}},
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
				ids := core.TopIDs(mr.Match(q, 5))
				perQuery = append(perQuery, eval.Precision(ids, rel))
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
