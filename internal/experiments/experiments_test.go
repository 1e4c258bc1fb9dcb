package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/forum"
	"repro/internal/match"
)

// quickOpt keeps experiment tests fast while still exercising every code
// path end to end.
var quickOpt = Options{
	Scale:             150,
	Queries:           30,
	Annotators:        6,
	SegmentationPosts: 40,
	Sizes:             []int{60, 120},
	Table6Posts:       120,
	Seed:              7,
}

func TestTable2AgreementBands(t *testing.T) {
	out, results := Table2(quickOpt)
	if !strings.Contains(out, "±10 chars") {
		t.Error("missing offset rows")
	}
	if len(results) != 2 {
		t.Fatalf("want 2 datasets, got %d", len(results))
	}
	for _, r := range results {
		for i := range r.Offsets {
			if r.Observed[i] < 0.5 || r.Observed[i] > 1 {
				t.Errorf("%v offset %d: observed %.2f outside plausible band",
					r.Domain, r.Offsets[i], r.Observed[i])
			}
			if r.Kappa[i] <= 0 {
				t.Errorf("%v offset %d: kappa %.2f should be positive (agreement above chance)",
					r.Domain, r.Offsets[i], r.Kappa[i])
			}
		}
		// Agreement should not degrade as tolerance loosens (Table 2).
		for i := 1; i < len(r.Observed); i++ {
			if r.Observed[i] < r.Observed[i-1]-1e-9 {
				t.Errorf("%v: observed agreement decreased with looser offset", r.Domain)
			}
		}
	}
}

func TestFig7ListsIntentions(t *testing.T) {
	out := Fig7(quickOpt)
	for _, label := range []string{"help request", "recommendation", "question", "previous efforts"} {
		if !strings.Contains(out, label) {
			t.Errorf("Fig7 missing %q", label)
		}
	}
}

func TestCMvsTermReduction(t *testing.T) {
	out, results := CMvsTerm(quickOpt)
	if !strings.Contains(out, "error reduction") {
		t.Error("missing header")
	}
	for _, r := range results {
		// The paper's claim: CM features reduce error vs term features.
		if r.CMError >= r.TermError {
			t.Errorf("%v: CM error %.3f >= term error %.3f — Sec 9.1.2.A shape not reproduced",
				r.Domain, r.CMError, r.TermError)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	_, results := Fig8(quickOpt)
	for d, rows := range results {
		byName := map[string]Fig8Row{}
		for _, r := range rows {
			byName[r.Name] = r
		}
		greedy, tile, sbs := byName["Greedy"], byName["Tile"], byName["StepbyStep"]
		// StepbyStep over-segments (Fig 8a) and has the worst error (8c).
		if sbs.AvgBorder < greedy.AvgBorder || sbs.AvgBorder < tile.AvgBorder {
			t.Errorf("%v: StepbyStep should return the most borders", d)
		}
		if greedy.Error >= sbs.Error {
			t.Errorf("%v: Greedy error %.3f should beat StepbyStep %.3f", d, greedy.Error, sbs.Error)
		}
	}
}

func TestFig9ShannonBest(t *testing.T) {
	_, results := Fig9(quickOpt)
	var shannon, worst Fig9Row
	for _, r := range results {
		if r.Name == "Shan.Div." {
			shannon = r
		}
		if r.AvgErrorChange > worst.AvgErrorChange {
			worst = r
		}
	}
	if shannon.Name == "" {
		t.Fatal("Shannon row missing")
	}
	// Fig 9: Shannon reduces error on average.
	if shannon.AvgErrorChange >= 0 {
		t.Errorf("Shannon avg error change %.3f, want negative (reduction)", shannon.AvgErrorChange)
	}
	if shannon.Decrease < 0.4 {
		t.Errorf("Shannon improved only %.0f%% of posts", shannon.Decrease*100)
	}
}

func TestTable3Distributions(t *testing.T) {
	out, dists := Table3(quickOpt)
	if !strings.Contains(out, "granularity") {
		t.Error("missing header")
	}
	for d, pair := range dists {
		for phase, dist := range pair {
			var sum float64
			for _, v := range dist {
				sum += v
			}
			if sum < 99.5 || sum > 100.5 {
				t.Errorf("%v phase %d: distribution sums to %.1f", d, phase, sum)
			}
		}
		// Refinement never increases the share of 5+-segment posts.
		if pair[1]["5-8"] > pair[0]["5-8"]+1e-9 {
			t.Errorf("%v: refinement increased 5-8 bucket", d)
		}
	}
}

func TestFig3Renders(t *testing.T) {
	out := Fig3(quickOpt)
	if !strings.Contains(out, "CM_tense") || !strings.Contains(out, "I0") {
		t.Errorf("Fig3 output malformed:\n%s", out)
	}
}

func TestTable4HeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := quickOpt
	opt.Scale = 300
	opt.Queries = 60
	_, results := Table4(opt)
	if len(results) != 3 {
		t.Fatalf("want 3 datasets")
	}
	for _, r := range results {
		intent := r.Precision["IntentIntent-MR"]
		full := r.Precision["FullText"]
		ldaP := r.Precision["LDA"]
		if intent <= full {
			t.Errorf("%v: IntentIntent %.3f should beat FullText %.3f (Table 4 headline)",
				r.Domain, intent, full)
		}
		if ldaP >= intent {
			t.Errorf("%v: LDA %.3f should trail IntentIntent %.3f", r.Domain, ldaP, intent)
		}
		if r.Gain <= 0 {
			t.Errorf("%v: gain %.3f should be positive", r.Domain, r.Gain)
		}
	}
}

func TestTable5AndFig10Render(t *testing.T) {
	if !strings.Contains(Table5(quickOpt), "Post pairs") {
		t.Error("Table5 malformed")
	}
	out := Fig10(quickOpt)
	if !strings.Contains(out, "0 rel") || !strings.Contains(out, "IntentIntent-MR") {
		t.Error("Fig10 malformed")
	}
}

func TestFig11Scaling(t *testing.T) {
	_, results := Fig11(quickOpt)
	if len(results) != 2 {
		t.Fatalf("want 2 sizes")
	}
	for _, r := range results {
		for m, d := range r.Retrieval {
			if d <= 0 {
				t.Errorf("size %d method %s: nonpositive retrieval time", r.Size, m)
			}
		}
	}
	// Segmentation time grows with collection size for the intent method.
	if results[1].Segmentation["IntentIntent-MR"] <= results[0].Segmentation["IntentIntent-MR"]/4 {
		t.Error("segmentation time did not grow with collection size")
	}
}

func TestTable6(t *testing.T) {
	out, res := Table6(quickOpt)
	if !strings.Contains(out, "Avg segmentation") {
		t.Error("Table6 malformed")
	}
	if res.AvgSegmentation <= 0 || res.AvgRetrieval <= 0 || res.TotalGrouping <= 0 {
		t.Error("Table6 timings not populated")
	}
	if res.Clusters < 1 || res.Segments < res.Posts {
		t.Errorf("Table6 stats implausible: %+v", res)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope", quickOpt); err == nil {
		t.Error("unknown experiment should error")
	}
	out, err := Run("fig7", quickOpt)
	if err != nil || !strings.Contains(out, "Fig 7") {
		t.Errorf("Run(fig7) failed: %v", err)
	}
	if len(Names()) < 13 {
		t.Error("Names incomplete")
	}
}

func TestAblationsRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := quickOpt
	opt.Queries = 15
	out, rows := Ablations(opt)
	if !strings.Contains(out, "DBSCAN grouping") {
		t.Error("ablation output malformed")
	}
	for _, r := range rows {
		for _, d := range []forum.Domain{forum.TechSupport, forum.Travel, forum.Programming} {
			if p := r.Precision[d]; p < 0 || p > 1 {
				t.Errorf("%s on %v: precision %.3f out of range", r.Name, d, p)
			}
		}
	}
}

// TestAlg2ReplayMatchesServed pins the ablation replay to the served
// path: at its zero value (n = 2k, raw sums) it answers every query as
// MR.Match does, bit for bit, so its other rows differ only by the knob.
func TestAlg2ReplayMatchesServed(t *testing.T) {
	for _, d := range allDomains {
		ds := newDataset(d, quickOpt.Scale, quickOpt.Seed)
		mr := match.NewMR("replay", baseline.Prepare(ds.texts, 0), match.MRConfig{Seed: quickOpt.Seed})
		for q := range ds.texts {
			if got, want := (alg2Variant{}).match(mr, q, 5), mr.Match(q, 5); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v doc %d: replay %v, MR.Match %v", d, q, got, want)
			}
		}
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 300 || o.Queries != 60 || o.Annotators != 12 ||
		o.SegmentationPosts != 200 || o.Table6Posts != 20000 ||
		o.Repeats != 2 || o.Seed != 42 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if len(o.Sizes) != 3 || o.Sizes[2] != 100000 {
		t.Errorf("default sizes wrong: %v", o.Sizes)
	}
	// Explicit values survive.
	o = Options{Scale: 10, Queries: 5, Annotators: 3, SegmentationPosts: 7,
		Sizes: []int{2}, Table6Posts: 9, Repeats: 1, Seed: 1}.withDefaults()
	if o.Scale != 10 || o.Sizes[0] != 2 || o.Repeats != 1 {
		t.Errorf("explicit options overridden: %+v", o)
	}
}

func TestRunAllSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := quickOpt
	opt.Scale = 60
	opt.Queries = 8
	opt.SegmentationPosts = 15
	opt.Sizes = []int{40}
	opt.Table6Posts = 40
	opt.Repeats = 1
	out, err := Run("all", opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"Table 2", "Fig 7", "Fig 8", "Fig 9",
		"Table 3", "Fig 3", "Table 4", "Fig 10", "Table 5", "Fig 11",
		"Table 6", "Ablations"} {
		if !strings.Contains(out, section) {
			t.Errorf("All() output missing section %q", section)
		}
	}
}
