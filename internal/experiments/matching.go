package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/forum"
	"repro/internal/lda"
	"repro/internal/match"
)

// dataset bundles a generated domain corpus with its post texts.
type dataset struct {
	domain forum.Domain
	posts  []forum.Post
	texts  []string
}

func newDataset(d forum.Domain, n int, seed int64) dataset {
	ds := dataset{domain: d}
	ds.posts = forum.Generate(forum.Config{Domain: d, NumPosts: n, Seed: seed})
	for _, p := range ds.posts {
		ds.texts = append(ds.texts, p.Text)
	}
	return ds
}

// columnConfig is what Table 4 and Fig 10 build their columns with.
func columnConfig(seed int64) baseline.Config {
	return baseline.Config{LDA: lda.Config{K: 8, Iterations: 60}, Seed: seed}
}

// topFive calls f with the top 5 ids that match answers for each of
// the first opt.Queries posts of ds, and the post's relevant set.
func topFive(match func(q, k int) []match.Result, ds dataset, opt Options, f func(ids []int, rel map[int]bool)) {
	for q := 0; q < opt.Queries && q < len(ds.posts); q++ {
		f(core.TopIDs(match(q, 5)), forum.RelevantSet(ds.posts, ds.posts[q]))
	}
}

// meanPrecision is the mean top-5 precision of match over ds's queries.
func meanPrecision(match func(q, k int) []match.Result, ds dataset, opt Options) float64 {
	var perQuery []float64
	topFive(match, ds, opt, func(ids []int, rel map[int]bool) {
		perQuery = append(perQuery, eval.Precision(ids, rel))
	})
	return eval.MeanPrecision(perQuery)
}

// table3 reproduces the segment-granularity table: percentage of posts
// with 1..5+ segments before grouping and after refinement, per dataset.
func table3(opt Options) (table, error) {
	t := table{Title: "Table 3: segment granularity — percentage of posts", Columns: []string{"Segments"}}
	buckets := core.GranularityBuckets()
	t.Rows = make([]row, len(buckets))
	for _, d := range allDomains {
		ds := newDataset(d, opt.Scale, opt.Seed)
		p, err := core.Build(ds.texts, core.Config{Seed: opt.Seed})
		if err != nil {
			return table{}, err
		}
		before, after := p.SegmentCounts()
		b, a := core.GranularityDistribution(before), core.GranularityDistribution(after)
		t.Columns = append(t.Columns, d.String()+" before", d.String()+" after")
		for i, bucket := range buckets {
			t.Rows[i].Label = bucket
			t.Rows[i].Cells = append(t.Rows[i].Cells, cells("%.1f%%", b[bucket], a[bucket])...)
		}
	}
	return t, nil
}

// fig3 prints the intention-cluster centroid matrix of the tech-support
// corpus: one row per segment-vector element, one column per cluster.
func fig3(opt Options) (table, error) {
	ds := newDataset(forum.TechSupport, opt.Scale, opt.Seed)
	p, err := core.Build(ds.texts, core.Config{Seed: opt.Seed})
	if err != nil {
		return table{}, err
	}
	cents := p.Centroids()
	t := table{Title: fmt.Sprintf("Fig 3: intention cluster centroids (%d clusters)", len(cents)),
		Columns: []string{"CM - Feature"}}
	for c := range cents {
		t.Columns = append(t.Columns, fmt.Sprintf("I%d", c))
	}
	for f := 0; len(cents) > 0 && f < len(cents[0]); f++ {
		r := row{Label: cm.VectorFeatureName(f)}
		for c := range cents {
			r.Cells = append(r.Cells, cell{cents[c][f], "%.2f"})
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// table4Methods are the Table 4 columns in paper order.
var table4Methods = []baseline.Method{
	baseline.LDA, baseline.FullText, baseline.ContentMR, baseline.SentIntentMR, baseline.IntentIntentMR,
}

// table4 reproduces the headline effectiveness comparison: mean precision
// of the five methods on the three datasets, with the IntentIntent-MR gain
// over FullText. Relevance comes from the generator's ground truth (same
// topic and same request variant).
func table4(opt Options) (table, error) {
	return precisionTable("Table 4: comparison of methods — mean precision (top-5, generator relevance)",
		allDomains, table4Methods, opt)
}

// health is the out-of-sample row: the Health domain, left out of every
// calibration, under FullText and IntentIntent-MR.
func health(opt Options) (table, error) {
	return precisionTable("Out-of-sample: mean precision on the Health domain (top-5, generator relevance)",
		[]forum.Domain{forum.Health}, []baseline.Method{baseline.FullText, baseline.IntentIntentMR}, opt)
}

// precisionTable is one row per domain of each method's mean precision,
// and the gain of IntentIntent-MR over FullText.
func precisionTable(title string, domains []forum.Domain, methods []baseline.Method, opt Options) (table, error) {
	t := table{Title: title, Columns: []string{"Dataset"}}
	for _, m := range methods {
		t.Columns = append(t.Columns, m.Name)
	}
	t.Columns = append(t.Columns, "Gain")
	for _, d := range domains {
		ds := newDataset(d, opt.Scale, opt.Seed)
		docs := baseline.Prepare(ds.texts)
		r := row{Label: d.String()}
		p := map[string]float64{}
		for _, m := range methods {
			mt, err := m.Build(docs, columnConfig(opt.Seed))
			if err != nil {
				return table{}, err
			}
			p[m.Name] = meanPrecision(mt.Match, ds, opt)
			r.Cells = append(r.Cells, cell{p[m.Name], "%.3f"})
		}
		gain := p[baseline.IntentIntentMR.Name] - p[baseline.FullText.Name]
		t.Rows = append(t.Rows, row{r.Label, append(r.Cells, cell{gain * 100, "%+.1f%%"})})
	}
	return t, nil
}

// fig10 summarizes the distribution of per-query relevant counts in the
// top-5 lists for each method — the paper's "lists with the largest number
// of related posts" comparison.
func fig10(opt Options) (table, error) {
	t := table{Title: "Fig 10: distribution of queries by #relevant in top-5",
		Columns: []string{"Method", "0 rel", "1", "2", "3", "4", "5 rel"}}
	for _, d := range allDomains {
		ds := newDataset(d, opt.Scale, opt.Seed)
		docs := baseline.Prepare(ds.texts)
		for _, m := range []baseline.Method{baseline.FullText, baseline.IntentIntentMR} {
			mt, err := m.Build(docs, columnConfig(opt.Seed))
			if err != nil {
				return table{}, err
			}
			hist := make([]float64, 6)
			topFive(mt.Match, ds, opt, func(ids []int, rel map[int]bool) {
				hits := 0
				for _, id := range ids {
					if rel[id] {
						hits++
					}
				}
				hist[hits]++
			})
			t.Rows = append(t.Rows, row{d.String() + " " + m.Name, cells("%.0f", hist...)})
		}
	}
	return t, nil
}

// table5 describes the derived evaluation corpus the way the paper's
// Table 5 does: methods compared, post pairs judged, total judgments, and
// simulated rater agreement (three raters per pair, each flipping the
// ground-truth judgment with 5% probability).
func table5(opt Options) (table, error) {
	t := table{Title: "Table 5: derived evaluation corpus",
		Columns: []string{"Dataset", "Methods", "Post pairs", "Evaluations", "Rater agreement"}}
	for _, d := range allDomains {
		methods := len(table4Methods)
		if d == forum.Programming {
			methods = 2 // the paper judged only FullText + IntentIntent on StackOverflow
		}
		pairs := opt.Queries * 5 * methods
		const raters = 3
		// Simulated rater pool: agreement over pairs with 5% flip noise.
		rng := rand.New(rand.NewSource(opt.Seed + int64(d)))
		var counts [][]int
		for i := 0; i < pairs; i++ {
			truth := rng.Float64() < 0.4
			yes := 0
			for r := 0; r < raters; r++ {
				if v := truth != (rng.Float64() < 0.05); v {
					yes++
				}
			}
			counts = append(counts, []int{yes, raters - yes})
		}
		kappa, _ := eval.FleissKappa(counts)
		t.Rows = append(t.Rows, row{d.String(),
			append(cells("%.0f", float64(methods), float64(pairs), float64(pairs*raters)), cell{kappa, "%.2f"})})
	}
	return t, nil
}
