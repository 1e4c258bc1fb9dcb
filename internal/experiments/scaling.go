package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/forum"
	"repro/internal/lda"
	"repro/internal/match"
)

// fig11Methods are the methods timed in Fig 11 (the paper's five); the
// first three are the segment-based ones of (a) and (b).
var fig11Methods = []baseline.Method{
	baseline.IntentIntentMR, baseline.SentIntentMR, baseline.ContentMR, baseline.FullText, baseline.LDA,
}

// fig11 reproduces the execution-time comparison on the tech-support
// corpus at increasing collection sizes: (a) total segmentation time per
// segment-based method, (b) segment-grouping time, and (c) average
// retrieval time per method. The ledger checks the orderings that hold
// by 2× or more at 1k and 10k posts: Content-MR's term-based
// segmentation costs more than IntentIntent-MR's border selection (the
// paper has it the other way round), which costs more than sentence
// splitting; Content-MR groups slowest; LDA, with no index, retrieves
// slowest of the five.
func fig11(opt Options) (table, error) {
	t := table{Title: "Fig 11: execution times (TechSupport corpus; (a), (b) total ms, (c) µs per query)",
		Columns: []string{"Stage, posts"}}
	for _, m := range fig11Methods {
		t.Columns = append(t.Columns, m.Name)
	}
	var seg, grp, ret []row
	const retrievalQueries = 50
	for _, size := range opt.Sizes {
		ds := newDataset(forum.TechSupport, size, opt.Seed)
		docs := baseline.Prepare(ds.texts)
		// Fig 11(c) times retrieval, not model training; keep the LDA fit
		// short so large sizes stay tractable.
		cfg := baseline.Config{LDA: lda.Config{K: 8, Iterations: scaledLDAIters(size)}, Seed: opt.Seed}
		s := row{Label: fmt.Sprintf("(a) segmentation, %d", size)}
		g := row{Label: fmt.Sprintf("(b) grouping, %d", size)}
		r := row{Label: fmt.Sprintf("(c) retrieval, %d", size)}
		for i, m := range fig11Methods {
			mt, err := m.Build(docs, cfg)
			if err != nil {
				return table{}, err
			}
			if i < 3 {
				st := mt.(*match.MR).Stats()
				s.Cells = append(s.Cells, cell{ms(st.Segmentation), "%.1f"})
				g.Cells = append(g.Cells, cell{ms(st.Grouping), "%.1f"})
			}
			r.Cells = append(r.Cells, cell{perQuery(min(retrievalQueries, size), func(q int) { mt.Match(q, 5) }), "%.0f"})
		}
		seg, grp, ret = append(seg, s), append(grp, g), append(ret, r)
	}
	t.Rows = append(append(seg, grp...), ret...)
	return t, nil
}

// ms is d in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// retrievalPasses is how many timed passes over the same queries a
// retrieval cell takes the median of, and minPass how long a pass runs
// at least: the query set is repeated until it has. A pass of one set
// of 50 fast queries lasted about 4 ms, short against the machine's
// drift, and moved a 1k-post cell up to 1.7× between runs.
const (
	retrievalPasses = 5
	minPass         = 50 * time.Millisecond
)

// perQuery times queries 0..n-1 through run: one untimed pass, then the
// median of retrievalPasses timed ones, in µs per query. A single pass
// right after a build measured the build's leftovers (a cold cache, a
// pending GC) as much as the method, and reordered methods run to run.
func perQuery(n int, run func(q int)) float64 {
	pass := func() float64 {
		start, queries := time.Now(), 0
		for queries == 0 || time.Since(start) < minPass {
			for q := 0; q < n; q++ {
				run(q)
			}
			queries += n
		}
		return ms(time.Since(start)) * 1000 / float64(queries)
	}
	pass()
	perPass := make([]float64, retrievalPasses)
	for i := range perPass {
		perPass[i] = pass()
	}
	slices.Sort(perPass)
	return perPass[retrievalPasses/2]
}

// scaledLDAIters keeps LDA training affordable as collections grow; the
// experiment times retrieval, not training.
func scaledLDAIters(size int) int {
	switch {
	case size <= 2000:
		return 40
	case size <= 20000:
		return 15
	default:
		return 5
	}
}

// table6 reproduces the StackOverflow-scale run on the programming
// corpus: average per-post segmentation time, total segment-grouping time,
// and average retrieval time (the paper: 0.067 s, 3.18 min, and 0.029 s on
// 1.5M posts).
func table6(opt Options) (table, error) {
	ds := newDataset(forum.Programming, opt.Table6Posts, opt.Seed)
	p, err := core.Build(ds.texts, core.Config{Seed: opt.Seed})
	if err != nil {
		return table{}, err
	}
	st := p.Stats()
	retrieval := perQuery(min(200, opt.Table6Posts), func(q int) { p.Related(q, 5) })
	return table{Title: "Table 6: execution times (Programming corpus)",
		Columns: []string{"Posts", "Avg segmentation µs", "Total grouping ms", "Avg retrieval µs", "Segments", "Clusters"},
		Rows: []row{{fmt.Sprint(opt.Table6Posts), []cell{
			{ms(st.Segmentation) * 1000 / float64(opt.Table6Posts), "%.2f"}, {ms(st.Grouping), "%.0f"},
			{retrieval, "%.0f"}, {float64(st.NumSegments), "%.0f"}, {float64(st.NumClusters), "%.0f"}}}},
	}, nil
}
