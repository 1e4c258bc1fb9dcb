package experiments

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
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

// runTable runs the experiment id of experimentList at opt and its
// defaults.
func runTable(t *testing.T, id string, opt Options) table {
	t.Helper()
	for _, e := range experimentList {
		if e.id == id {
			tbl, err := e.run(opt.withDefaults())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return tbl
		}
	}
	t.Fatalf("no experiment %q", id)
	return table{}
}

// at is the cell of tbl in the row labelled label, under column.
func at(t *testing.T, tbl table, label, column string) float64 {
	t.Helper()
	c := slices.Index(tbl.Columns, column)
	r := slices.IndexFunc(tbl.Rows, func(r row) bool { return r.Label == label })
	if c < 1 || r < 0 || c > len(tbl.Rows[r].Cells) {
		t.Fatalf("%s: no cell in row %q, column %q", tbl.Title, label, column)
	}
	return tbl.Rows[r].Cells[c-1].V
}

func TestTable2AgreementBands(t *testing.T) {
	tbl := runTable(t, "table2", quickOpt)
	if !strings.Contains(tbl.render(), "±10 chars") {
		t.Error("missing offset rows")
	}
	if len(tbl.Columns) != 1+2*len(segmentationDomains) {
		t.Fatalf("want 2 datasets, got columns %v", tbl.Columns)
	}
	for _, d := range segmentationDomains {
		for i, r := range tbl.Rows {
			observed := at(t, tbl, r.Label, d.String()+" agreement") / 100
			kappa := at(t, tbl, r.Label, d.String()+" kappa")
			if observed < 0.5 || observed > 1 {
				t.Errorf("%v %s: observed %.2f outside plausible band", d, r.Label, observed)
			}
			if kappa <= 0 {
				t.Errorf("%v %s: kappa %.2f should be positive (agreement above chance)", d, r.Label, kappa)
			}
			// Agreement should not degrade as tolerance loosens (Table 2).
			if i > 0 && observed < at(t, tbl, tbl.Rows[i-1].Label, d.String()+" agreement")/100-1e-9 {
				t.Errorf("%v: observed agreement decreased with looser offset", d)
			}
		}
	}
}

func TestFig7ListsIntentions(t *testing.T) {
	out, err := Run("fig7", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"help request", "recommendation", "question", "previous efforts"} {
		if !strings.Contains(out, label) {
			t.Errorf("Fig7 missing %q", label)
		}
	}
}

func TestCMvsTermReduction(t *testing.T) {
	tbl := runTable(t, "cmvsterm", quickOpt)
	if !strings.Contains(tbl.render(), "error reduction") {
		t.Error("missing header")
	}
	for _, d := range segmentationDomains {
		// The paper's claim: CM features reduce error vs term features.
		term, cmErr := at(t, tbl, d.String(), "Hearst (terms)"), at(t, tbl, d.String(), "Tile (CM)")
		if cmErr >= term {
			t.Errorf("%v: CM error %.3f >= term error %.3f — Sec 9.1.2.A shape not reproduced", d, cmErr, term)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	tbl := runTable(t, "fig8", quickOpt)
	for _, d := range segmentationDomains {
		get := func(name, column string) float64 { return at(t, tbl, d.String()+" "+name, column) }
		// StepbyStep over-segments (Fig 8a) and has the worst error (8c).
		if sbs := get("StepbyStep", "avg borders"); sbs < get("Greedy", "avg borders") || sbs < get("Tile", "avg borders") {
			t.Errorf("%v: StepbyStep should return the most borders", d)
		}
		if greedy, sbs := get("Greedy", "multWinDiff"), get("StepbyStep", "multWinDiff"); greedy >= sbs {
			t.Errorf("%v: Greedy error %.3f should beat StepbyStep %.3f", d, greedy, sbs)
		}
	}
}

func TestFig9ShannonBest(t *testing.T) {
	tbl := runTable(t, "fig9", quickOpt)
	// Fig 9: Shannon reduces error on average.
	if change := at(t, tbl, "Shan.Div.", "avg error change"); change >= 0 {
		t.Errorf("Shannon avg error change %.3f, want negative (reduction)", change)
	}
	if improved := at(t, tbl, "Shan.Div.", "posts improved"); improved < 40 {
		t.Errorf("Shannon improved only %.0f%% of posts", improved)
	}
}

func TestTable3Distributions(t *testing.T) {
	tbl := runTable(t, "table3", quickOpt)
	if !strings.Contains(tbl.render(), "granularity") {
		t.Error("missing header")
	}
	for _, d := range allDomains {
		for _, phase := range []string{" before", " after"} {
			var sum float64
			for _, r := range tbl.Rows {
				sum += at(t, tbl, r.Label, d.String()+phase)
			}
			if sum < 99.5 || sum > 100.5 {
				t.Errorf("%v%s: distribution sums to %.1f", d, phase, sum)
			}
		}
		// Refinement never increases the share of 5+-segment posts.
		if at(t, tbl, "5-8", d.String()+" after") > at(t, tbl, "5-8", d.String()+" before")+1e-9 {
			t.Errorf("%v: refinement increased 5-8 bucket", d)
		}
	}
}

func TestFig3Renders(t *testing.T) {
	out := runTable(t, "fig3", quickOpt).render()
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
	tbl := runTable(t, "table4", opt)
	if len(tbl.Rows) != 3 {
		t.Fatalf("want 3 datasets")
	}
	for _, r := range tbl.Rows {
		intent := at(t, tbl, r.Label, "IntentIntent-MR")
		full := at(t, tbl, r.Label, "FullText")
		ldaP := at(t, tbl, r.Label, "LDA")
		if intent <= full {
			t.Errorf("%s: IntentIntent %.3f should beat FullText %.3f (Table 4 headline)", r.Label, intent, full)
		}
		if ldaP >= intent {
			t.Errorf("%s: LDA %.3f should trail IntentIntent %.3f", r.Label, ldaP, intent)
		}
		if gain := at(t, tbl, r.Label, "Gain"); gain <= 0 {
			t.Errorf("%s: gain %.1f%% should be positive", r.Label, gain)
		}
	}
}

func TestTable5AndFig10Render(t *testing.T) {
	if !strings.Contains(runTable(t, "table5", quickOpt).render(), "Post pairs") {
		t.Error("Table5 malformed")
	}
	out := runTable(t, "fig10", quickOpt).render()
	if !strings.Contains(out, "0 rel") || !strings.Contains(out, "IntentIntent-MR") {
		t.Error("Fig10 malformed")
	}
}

func TestFig11Scaling(t *testing.T) {
	tbl := runTable(t, "fig11", quickOpt)
	if len(tbl.Rows) != 3*len(quickOpt.Sizes) {
		t.Fatalf("want 2 sizes, got rows %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if !strings.HasPrefix(r.Label, "(c) retrieval") {
			continue
		}
		for i, c := range r.Cells {
			if c.V <= 0 {
				t.Errorf("%s method %s: nonpositive retrieval time", r.Label, tbl.Columns[i+1])
			}
		}
	}
	// Segmentation time grows with collection size for the intent method.
	small := at(t, tbl, "(a) segmentation, 60", "IntentIntent-MR")
	if large := at(t, tbl, "(a) segmentation, 120", "IntentIntent-MR"); large <= small/4 {
		t.Error("segmentation time did not grow with collection size")
	}
}

func TestTable6(t *testing.T) {
	tbl := runTable(t, "table6", quickOpt)
	if !strings.Contains(tbl.render(), "Avg segmentation") {
		t.Error("Table6 malformed")
	}
	get := func(column string) float64 { return at(t, tbl, "120", column) }
	if get("Avg segmentation µs") <= 0 || get("Avg retrieval µs") <= 0 || get("Total grouping ms") <= 0 {
		t.Error("Table6 timings not populated")
	}
	if get("Clusters") < 1 || get("Segments") < float64(quickOpt.Table6Posts) {
		t.Errorf("Table6 stats implausible: %+v", tbl.Rows)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope", quickOpt); err == nil {
		t.Error("unknown experiment should error")
	}
	// Fig 3 is descriptive, so the ledger does not run it: one CM
	// feature row under one column per intention cluster.
	out, err := Run("fig3", quickOpt)
	if err != nil || !strings.Contains(out, "CM_tense") || !strings.Contains(out, "I0") {
		t.Errorf("Run(fig3): %v\n%s", err, out)
	}
	if len(Names()) != len(experimentList)+1 {
		t.Error("Names incomplete")
	}
	// A collection size below 1 is refused before anything runs.
	for _, sizes := range [][]int{{0}, {1000, -5}} {
		opt := quickOpt
		opt.Sizes = sizes
		if _, err := Run("fig11", opt); err == nil || !strings.Contains(err.Error(), "below 1") {
			t.Errorf("Run(fig11) at sizes %v: error %v, want a size below 1 refused", sizes, err)
		}
	}
}

func TestAblationsRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := quickOpt
	opt.Queries = 15
	tbl := runTable(t, "ablations", opt)
	if !strings.Contains(tbl.render(), "DBSCAN grouping") {
		t.Error("ablation output malformed")
	}
	for _, r := range tbl.Rows {
		for _, d := range allDomains {
			if p := at(t, tbl, r.Label, d.String()); p < 0 || p > 1 {
				t.Errorf("%s on %v: precision %.3f out of range", r.Label, d, p)
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
		mr := match.NewMR("replay", baseline.Prepare(ds.texts), match.MRConfig{Seed: quickOpt.Seed})
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
		o.SegmentationPosts != 200 || o.Table6Posts != 20000 || o.Seed != 42 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if len(o.Sizes) != 3 || o.Sizes[2] != 100000 {
		t.Errorf("default sizes wrong: %v", o.Sizes)
	}
	// Explicit values survive.
	o = Options{Scale: 10, Queries: 5, Annotators: 3, SegmentationPosts: 7,
		Sizes: []int{2}, Table6Posts: 9, Seed: 1}.withDefaults()
	if o.Scale != 10 || o.Sizes[0] != 2 || o.Queries != 5 || o.Seed != 1 {
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
	out, err := Run("all", opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"Table 2", "Fig 7", "Fig 8", "Fig 9",
		"Table 3", "Fig 3", "Table 4", "Fig 10", "Table 5", "Fig 11",
		"Table 6", "Ablations", "Health"} {
		if !strings.Contains(out, section) {
			t.Errorf("All() output missing section %q", section)
		}
	}
}
