package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/forum"
	"repro/internal/lda"
	"repro/internal/match"
)

// Fig11Result holds one collection size's timings.
type Fig11Result struct {
	Size         int
	Segmentation map[string]time.Duration // method → total segmentation time
	Grouping     map[string]time.Duration // method → total grouping time
	Retrieval    map[string]time.Duration // method → avg per-query retrieval
}

// fig11Methods are the methods timed in Fig 11 (the paper's five).
var fig11Methods = []baseline.Method{
	baseline.IntentIntentMR, baseline.SentIntentMR, baseline.ContentMR, baseline.FullText, baseline.LDA,
}

// Fig11 reproduces the execution-time comparison on the tech-support
// corpus at increasing collection sizes: (a) total segmentation time per
// segment-based method, (b) segment-grouping time, and (c) average
// retrieval time per method. The expected shape: IntentIntent segmentation
// costs more than sentence splitting (border selection) while Content's
// term-based pass is cheapest; retrieval stays in the sub-millisecond to
// millisecond range for the indexed methods with LDA slowest (no index).
func Fig11(opt Options) (string, []Fig11Result) {
	opt = opt.withDefaults()
	var results []Fig11Result
	var b strings.Builder
	b.WriteString("Fig 11: execution times (TechSupport corpus)\n")
	const retrievalQueries = 50
	for _, size := range opt.Sizes {
		ds := newDataset(forum.TechSupport, size, opt.Seed)
		docs := baseline.Prepare(ds.texts, opt.Workers)
		// Fig 11(c) times retrieval, not model training; keep the LDA fit
		// short so large sizes stay tractable.
		cfg := baseline.Config{LDA: lda.Config{K: 8, Iterations: scaledLDAIters(size)}, Seed: opt.Seed, Workers: opt.Workers}
		res := Fig11Result{
			Size:         size,
			Segmentation: map[string]time.Duration{},
			Grouping:     map[string]time.Duration{},
			Retrieval:    map[string]time.Duration{},
		}
		for _, m := range fig11Methods {
			mt, err := m.Build(docs, cfg)
			if err != nil {
				return err.Error(), nil
			}
			var st match.BuildStats // zero for the whole-post methods
			if mr, ok := mt.(*match.MR); ok {
				st = mr.Stats()
			}
			res.Segmentation[m.Name] = st.Segmentation
			res.Grouping[m.Name] = st.Grouping
			start := time.Now()
			n := retrievalQueries
			if n > size {
				n = size
			}
			for q := 0; q < n; q++ {
				mt.Match(q, 5)
			}
			res.Retrieval[m.Name] = time.Since(start) / time.Duration(n)
		}
		results = append(results, res)
	}

	segMethods := fig11Methods[:3] // the segment-based three of (a) and (b)
	var segRows, grpRows, retRows [][]string
	for _, r := range results {
		segRow := []string{fmt.Sprintf("%d", r.Size)}
		grpRow := []string{fmt.Sprintf("%d", r.Size)}
		for _, m := range segMethods {
			segRow = append(segRow, r.Segmentation[m.Name].Round(time.Millisecond).String())
			grpRow = append(grpRow, r.Grouping[m.Name].Round(time.Millisecond).String())
		}
		segRows = append(segRows, segRow)
		grpRows = append(grpRows, grpRow)
		retRow := []string{fmt.Sprintf("%d", r.Size)}
		for _, m := range fig11Methods {
			retRow = append(retRow, r.Retrieval[m.Name].Round(time.Microsecond).String())
		}
		retRows = append(retRows, retRow)
	}
	segHeader := []string{"Posts"}
	grpHeader := []string{"Posts"}
	for _, m := range segMethods {
		segHeader = append(segHeader, m.Name)
		grpHeader = append(grpHeader, m.Name)
	}
	retHeader := []string{"Posts"}
	for _, m := range fig11Methods {
		retHeader = append(retHeader, m.Name)
	}
	b.WriteString("(a) total segmentation time\n" + table(segHeader, segRows))
	b.WriteString("(b) segment grouping time\n" + table(grpHeader, grpRows))
	b.WriteString("(c) avg retrieval time per query\n" + table(retHeader, retRows))
	return b.String(), results
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

// Table6Result holds the StackOverflow-scale timings.
type Table6Result struct {
	Posts              int
	AvgSegmentation    time.Duration
	TotalGrouping      time.Duration
	AvgRetrieval       time.Duration
	Segments, Clusters int
}

// Table6 reproduces the StackOverflow-scale run on the programming
// corpus: average per-post segmentation time, total segment-grouping time,
// and average retrieval time (the paper: 0.067 s, 3.18 min, and 0.029 s on
// 1.5M posts).
func Table6(opt Options) (string, Table6Result) {
	opt = opt.withDefaults()
	ds := newDataset(forum.Programming, opt.Table6Posts, opt.Seed)
	p, err := core.Build(ds.texts, core.Config{Seed: opt.Seed, Workers: opt.Workers})
	if err != nil {
		return err.Error(), Table6Result{}
	}
	st := p.Stats()
	const retrievalQueries = 200
	n := retrievalQueries
	if n > opt.Table6Posts {
		n = opt.Table6Posts
	}
	start := time.Now()
	for q := 0; q < n; q++ {
		p.Related(q, 5)
	}
	res := Table6Result{
		Posts:           opt.Table6Posts,
		AvgSegmentation: st.Segmentation / time.Duration(opt.Table6Posts),
		TotalGrouping:   st.Grouping,
		AvgRetrieval:    time.Since(start) / time.Duration(n),
		Segments:        st.NumSegments,
		Clusters:        st.NumClusters,
	}
	out := fmt.Sprintf("Table 6: execution times (Programming corpus, %d posts, %d segments, %d clusters)\n",
		res.Posts, res.Segments, res.Clusters) +
		table([]string{"Avg segmentation", "Total grouping", "Avg retrieval"},
			[][]string{{res.AvgSegmentation.String(), res.TotalGrouping.Round(time.Millisecond).String(),
				res.AvgRetrieval.Round(time.Microsecond).String()}})
	return out, res
}
