package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/baseline"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/forum"
	"repro/internal/lda"
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
func columnConfig(seed int64, workers int) baseline.Config {
	return baseline.Config{LDA: lda.Config{K: 8, Iterations: 60}, Seed: seed, Workers: workers}
}

// Table3 reproduces the segment-granularity table: percentage of posts
// with 1..5+ segments before grouping and after refinement, per dataset.
func Table3(opt Options) (string, map[forum.Domain][2]map[string]float64) {
	opt = opt.withDefaults()
	results := make(map[forum.Domain][2]map[string]float64)
	var b strings.Builder
	b.WriteString("Table 3: segment granularity — percentage of posts\n")
	header := []string{"Segments"}
	for _, d := range allDomains {
		header = append(header, d.String()+" before", d.String()+" after")
	}
	dists := map[forum.Domain][2]map[string]float64{}
	for _, d := range allDomains {
		ds := newDataset(d, opt.Scale, opt.Seed)
		p, err := core.Build(ds.texts, core.Config{Seed: opt.Seed, Workers: opt.Workers})
		if err != nil {
			return err.Error(), nil
		}
		before, after := p.SegmentCounts()
		dists[d] = [2]map[string]float64{
			core.GranularityDistribution(before),
			core.GranularityDistribution(after),
		}
	}
	var rows [][]string
	for _, bucket := range core.GranularityBuckets() {
		row := []string{bucket}
		for _, d := range allDomains {
			row = append(row, pct(dists[d][0][bucket]), pct(dists[d][1][bucket]))
		}
		rows = append(rows, row)
	}
	results = dists
	b.WriteString(table(header, rows))
	return b.String(), results
}

// Fig3 prints the intention-cluster centroid matrix of the tech-support
// corpus: one row per segment-vector element, one column per cluster.
func Fig3(opt Options) string {
	opt = opt.withDefaults()
	ds := newDataset(forum.TechSupport, opt.Scale, opt.Seed)
	p, err := core.Build(ds.texts, core.Config{Seed: opt.Seed, Workers: opt.Workers})
	if err != nil {
		return err.Error()
	}
	cents := p.Centroids()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3: intention cluster centroids (%d clusters)\n", len(cents))
	header := []string{"CM - Feature"}
	for c := range cents {
		header = append(header, fmt.Sprintf("I%d", c))
	}
	var rows [][]string
	dim := 0
	if len(cents) > 0 {
		dim = len(cents[0])
	}
	for f := 0; f < dim; f++ {
		row := []string{cm.VectorFeatureName(f)}
		for c := range cents {
			row = append(row, f2(cents[c][f]))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	return b.String()
}

// Table4Result holds one dataset's mean-precision row.
type Table4Result struct {
	Domain    forum.Domain
	Precision map[string]float64 // method name → mean precision
	Gain      float64            // IntentIntent-MR − FullText (absolute points)
	ZeroFrac  map[string]float64 // method name → fraction of zero-precision lists
	Queries   int
}

// table4Methods are the Table 4 columns in paper order.
var table4Methods = []baseline.Method{
	baseline.LDA, baseline.FullText, baseline.ContentMR, baseline.SentIntentMR, baseline.IntentIntentMR,
}

// Table4 reproduces the headline effectiveness comparison: mean precision
// of the five methods on the three datasets, with the IntentIntent-MR gain
// over FullText. Relevance comes from the generator's ground truth (same
// topic and same request variant).
func Table4(opt Options) (string, []Table4Result) {
	opt = opt.withDefaults()
	var results []Table4Result
	var rows [][]string
	for _, d := range allDomains {
		res := Table4Result{Domain: d, Precision: map[string]float64{},
			ZeroFrac: map[string]float64{}, Queries: opt.Queries * opt.Repeats}
		for rep := 0; rep < opt.Repeats; rep++ {
			seed := opt.Seed + int64(rep)*101
			ds := newDataset(d, opt.Scale, seed)
			docs := baseline.Prepare(ds.texts, opt.Workers)
			for _, m := range table4Methods {
				mt, err := m.Build(docs, columnConfig(seed, opt.Workers))
				if err != nil {
					return err.Error(), nil
				}
				var perQuery []float64
				for q := 0; q < opt.Queries && q < len(ds.posts); q++ {
					rel := forum.RelevantSet(ds.posts, ds.posts[q])
					ids := core.TopIDs(mt.Match(q, 5))
					perQuery = append(perQuery, eval.Precision(ids, rel))
				}
				res.Precision[m.Name] += eval.MeanPrecision(perQuery) / float64(opt.Repeats)
				res.ZeroFrac[m.Name] += eval.ZeroFraction(perQuery) / float64(opt.Repeats)
			}
		}
		res.Gain = res.Precision[baseline.IntentIntentMR.Name] - res.Precision[baseline.FullText.Name]
		results = append(results, res)
		row := []string{d.String()}
		for _, m := range table4Methods {
			row = append(row, f3(res.Precision[m.Name]))
		}
		row = append(row, fmt.Sprintf("%+.1f%%", res.Gain*100))
		rows = append(rows, row)
	}
	header := []string{"Dataset"}
	for _, m := range table4Methods {
		header = append(header, m.Name)
	}
	header = append(header, "Gain")
	out := "Table 4: comparison of methods — mean precision (top-5, generator relevance)\n" +
		table(header, rows)
	return out, results
}

// Fig10 summarizes the distribution of per-query relevant counts in the
// top-5 lists for each method — the paper's "lists with the largest number
// of related posts" comparison.
func Fig10(opt Options) string {
	opt = opt.withDefaults()
	var b strings.Builder
	b.WriteString("Fig 10: distribution of queries by #relevant in top-5\n")
	for _, d := range allDomains {
		ds := newDataset(d, opt.Scale, opt.Seed)
		docs := baseline.Prepare(ds.texts, opt.Workers)
		var rows [][]string
		for _, m := range []baseline.Method{baseline.FullText, baseline.IntentIntentMR} {
			mt, err := m.Build(docs, columnConfig(opt.Seed, opt.Workers))
			if err != nil {
				return err.Error()
			}
			hist := make([]int, 6)
			for q := 0; q < opt.Queries && q < len(ds.posts); q++ {
				rel := forum.RelevantSet(ds.posts, ds.posts[q])
				hits := 0
				for _, id := range core.TopIDs(mt.Match(q, 5)) {
					if rel[id] {
						hits++
					}
				}
				hist[hits]++
			}
			row := []string{m.Name}
			for _, h := range hist {
				row = append(row, fmt.Sprintf("%d", h))
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(&b, "%s:\n%s", d,
			table([]string{"Method", "0 rel", "1", "2", "3", "4", "5 rel"}, rows))
	}
	return b.String()
}

// Table5 describes the derived evaluation corpus the way the paper's
// Table 5 does: methods compared, post pairs judged, total judgments, and
// simulated rater agreement (three raters per pair, each flipping the
// ground-truth judgment with 5% probability).
func Table5(opt Options) string {
	opt = opt.withDefaults()
	var rows [][]string
	for _, d := range allDomains {
		methods := len(table4Methods)
		if d == forum.Programming {
			methods = 2 // the paper judged only FullText + IntentIntent on StackOverflow
		}
		pairs := opt.Queries * 5 * methods
		raters := 3
		judgments := pairs * raters
		// Simulated rater pool: agreement over pairs with 5% flip noise.
		rng := rand.New(rand.NewSource(opt.Seed + int64(d)))
		var counts [][]int
		for i := 0; i < pairs; i++ {
			truth := rng.Float64() < 0.4
			yes := 0
			for r := 0; r < raters; r++ {
				v := truth
				if rng.Float64() < 0.05 {
					v = !v
				}
				if v {
					yes++
				}
			}
			counts = append(counts, []int{yes, raters - yes})
		}
		kappa, _ := eval.FleissKappa(counts)
		rows = append(rows, []string{
			d.String(), fmt.Sprintf("%d", methods), fmt.Sprintf("%d", pairs),
			fmt.Sprintf("%d", judgments), f2(kappa),
		})
	}
	return "Table 5: derived evaluation corpus\n" +
		table([]string{"Dataset", "Methods", "Post pairs", "Evaluations", "Rater agreement"}, rows)
}
