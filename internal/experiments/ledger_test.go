package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// updateLedger rewrites the committed ledger from a fresh run instead of
// checking against it, and then the ledger blocks of EXPERIMENTS.md from
// the ledger: go test ./internal/experiments -run TestLedger -update
var updateLedger = flag.Bool("update", false, "rewrite EXPERIMENTS.json and the ledger blocks of EXPERIMENTS.md")

const (
	ledgerFile = repoRoot + "/EXPERIMENTS.json"
	docFile    = repoRoot + "/EXPERIMENTS.md"
)

// ledgerOptions is the canonical run: Scale 300, 80 queries, Fig 11 at
// 1k and 10k posts, the other sizes at their defaults.
var ledgerOptions = Options{Scale: 300, Queries: 80, Sizes: []int{1000, 10000}}.withDefaults()

// ledgerSeeds are the quality experiments' seeds, the canonical 42 first.
var ledgerSeeds = []int64{42, 43, 44, 45, 46}

// qualityIDs are the experiments whose every cell is stored with its
// per-seed values; timedIDs run once, at seed 42, and only the verdicts
// of their claims are stored. Fig 7 and Fig 3 are descriptive and not
// in the ledger.
var (
	qualityIDs = []string{"table2", "cmvsterm", "fig8", "fig9", "table3", "table4", "fig10", "table5", "ablations", "health"}
	timedIDs   = []string{"fig11", "table6"}
)

// ledger is EXPERIMENTS.json.
type ledger struct {
	Scale       int          `json:"scale"`
	Queries     int          `json:"queries"`
	Seeds       []int64      `json:"seeds"`
	Experiments []ledgerExp  `json:"experiments"`
	Claims      []claim      `json:"claims"`
	Cells       []ledgerCell `json:"cells"`
}

// ledgerExp is one experiment's verdict: ✓ when all its claims hold,
// ✗ when all are reversed, ◐ otherwise. Heading is the title of its
// block in EXPERIMENTS.md, "## <heading> (<verdict>)".
type ledgerExp struct {
	ID      string `json:"id"`
	Heading string `json:"heading"`
	Verdict string `json:"verdict"`
}

// claim is an ordering the paper or the repo states: for every pair
// [a, b] of Less, a < b, where a and b are cell ids
// ("<experiment>/<row>/<column>") or numbers. The claim is ✓ when every
// pair holds with disjoint intervals, ✗ when every pair is reversed with
// disjoint intervals, ◐ otherwise. A timing cell has one measurement and
// the interval [v/√2, v·√2], so its pairs are disjoint when the ratio is
// 2× or more.
type claim struct {
	Exp     string      `json:"exp"`
	Text    string      `json:"text"`
	Less    [][2]string `json:"less"`
	Verdict string      `json:"verdict"`
}

// ledgerCell is one quality cell over the seeds: the values, their mean
// and a 95% percentile bootstrap interval of the mean.
type ledgerCell struct {
	ID     string    `json:"id"`
	Values []float64 `json:"values"`
	Mean   float64   `json:"mean"`
	Lo     float64   `json:"lo"`
	Hi     float64   `json:"hi"`
}

// interval is a cell's mean and bootstrap interval. The bootstrap seed
// is fixed, so the same values give the same interval.
func interval(vs []float64) (mean, lo, hi float64) {
	const resamples = 2000
	rng := rand.New(rand.NewSource(1))
	means := make([]float64, resamples)
	for b := range means {
		for range vs {
			means[b] += vs[rng.Intn(len(vs))]
		}
		means[b] /= float64(len(vs))
	}
	sort.Float64s(means)
	for _, v := range vs {
		mean += v
	}
	return mean / float64(len(vs)), means[resamples/40], means[resamples-resamples/40-1]
}

// eachCell calls f with every cell of t and its ledger id.
func eachCell(exp string, t table, f func(id string, v float64)) {
	for _, r := range t.Rows {
		for i, c := range r.Cells {
			f(exp+"/"+r.Label+"/"+t.Columns[i+1], c.V)
		}
	}
}

// verdict is c's mark under bounds, which gives each side's interval.
func verdict(c claim, bounds func(string) (lo, hi float64, ok bool)) (string, error) {
	holds, reversed := 0, 0
	for _, p := range c.Less {
		alo, ahi, aok := bounds(p[0])
		blo, bhi, bok := bounds(p[1])
		if !aok || !bok {
			return "", fmt.Errorf("claim %q: unknown cell in %v", c.Text, p)
		}
		if ahi < blo {
			holds++
		} else if bhi < alo {
			reversed++
		}
	}
	switch {
	case len(c.Less) == 0:
		return "", fmt.Errorf("claim %q compares nothing", c.Text)
	case holds == len(c.Less):
		return "✓", nil
	case reversed == len(c.Less):
		return "✗", nil
	}
	return "◐", nil
}

// merge is an experiment's verdict from its claims' verdicts.
func merge(marks []string) string {
	if len(marks) == 0 {
		return ""
	}
	for _, m := range marks[1:] {
		if m != marks[0] {
			return "◐"
		}
	}
	return marks[0]
}

// runLedger runs every ledger experiment and returns the ledger the run
// gives for claims. In check mode a timing claim keeps its committed
// verdict unless its point ordering reverses: only the ordering of a
// committed ✓ or ✗ is gated, since timings on a shared box are noisy.
func runLedger(t *testing.T, claims []claim, check bool) ledger {
	l := ledger{Scale: ledgerOptions.Scale, Queries: ledgerOptions.Queries, Seeds: ledgerSeeds}
	values := map[string][]float64{}
	timed := map[string]float64{}
	headings := map[string]string{}
	for _, e := range experimentList {
		seeds := ledgerSeeds
		if slices.Contains(timedIDs, e.id) {
			seeds = seeds[:1]
		} else if !slices.Contains(qualityIDs, e.id) {
			continue
		}
		for _, seed := range seeds {
			opt := ledgerOptions
			opt.Seed = seed
			tbl, err := e.run(opt)
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.id, seed, err)
			}
			headings[e.id], _, _ = strings.Cut(tbl.Title, ":")
			eachCell(e.id, tbl, func(id string, v float64) {
				if len(seeds) == 1 {
					timed[id] = v
					return
				}
				if values[id] == nil {
					l.Cells = append(l.Cells, ledgerCell{ID: id})
				}
				values[id] = append(values[id], v)
			})
		}
	}
	for i := range l.Cells {
		c := &l.Cells[i]
		c.Values = values[c.ID]
		c.Mean, c.Lo, c.Hi = interval(c.Values)
	}
	bounds := func(id string) (lo, hi float64, ok bool) {
		if x, err := strconv.ParseFloat(id, 64); err == nil {
			return x, x, true
		}
		if v, ok := timed[id]; ok {
			return v / math.Sqrt2, v * math.Sqrt2, true
		}
		i := slices.IndexFunc(l.Cells, func(c ledgerCell) bool { return c.ID == id })
		if i < 0 {
			return 0, 0, false
		}
		return l.Cells[i].Lo, l.Cells[i].Hi, true
	}
	marks := map[string][]string{}
	for _, c := range claims {
		v, err := verdict(c, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if check && slices.Contains(timedIDs, c.Exp) && (c.Verdict == "◐" || ordered(c, timed)) {
			v = c.Verdict
		}
		c.Verdict = v
		l.Claims = append(l.Claims, c)
		marks[c.Exp] = append(marks[c.Exp], v)
	}
	for _, e := range experimentList {
		if headings[e.id] != "" {
			l.Experiments = append(l.Experiments, ledgerExp{e.id, headings[e.id], merge(marks[e.id])})
		}
	}
	return l
}

// ordered reports whether every pair of a committed ✓ (✗) timing claim
// is still ordered (reversed) on the point values of this run.
func ordered(c claim, timed map[string]float64) bool {
	value := func(id string) float64 {
		if x, err := strconv.ParseFloat(id, 64); err == nil {
			return x
		}
		return timed[id]
	}
	for _, p := range c.Less {
		if (c.Verdict == "✓") != (value(p[0]) < value(p[1])) {
			return false
		}
	}
	return true
}

// round keeps four decimals, so the file reads and diffs cleanly.
func round(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// TestLedger re-runs the paper's experiments over the ledger's seeds and
// holds them to EXPERIMENTS.json: every quality cell's interval must
// overlap its committed one, and every claim and experiment keep its
// verdict. TestLedgerBlocks holds EXPERIMENTS.md to the file.
func TestLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the ledger's timings and its run time assume no race detector")
	}
	raw, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	var want ledger
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := runLedger(t, want.Claims, !*updateLedger)
	if *updateLedger {
		for i := range got.Cells {
			c := &got.Cells[i]
			for j := range c.Values {
				c.Values[j] = round(c.Values[j])
			}
			c.Mean, c.Lo, c.Hi = round(c.Mean), round(c.Lo), round(c.Hi)
		}
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		// Arrays of numbers or strings on one line each: a cell's values,
		// a claim's pair.
		out := regexp.MustCompile(`\[[^\[\]{}]*\]`).ReplaceAllFunc(b.Bytes(), func(a []byte) []byte {
			return regexp.MustCompile(`\n\s*`).ReplaceAll(a, nil)
		})
		if err := os.WriteFile(ledgerFile, out, 0o644); err != nil {
			t.Fatal(err)
		}
		l, doc := readLedgerDoc(t)
		rendered, _, err := renderDoc(doc, l)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(docFile, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got.Scale != want.Scale || got.Queries != want.Queries || !slices.Equal(got.Seeds, want.Seeds) {
		t.Errorf("ledger run at scale %d, %d queries, seeds %v; the file has %d, %d, %v",
			got.Scale, got.Queries, got.Seeds, want.Scale, want.Queries, want.Seeds)
	}
	committed := map[string]ledgerCell{}
	for _, c := range want.Cells {
		committed[c.ID] = c
	}
	for _, c := range got.Cells {
		w, ok := committed[c.ID]
		switch {
		case !ok:
			t.Errorf("cell %s is not in the ledger", c.ID)
		case c.Hi < w.Lo-1e-4 || w.Hi < c.Lo-1e-4:
			t.Errorf("cell %s: interval [%.4f, %.4f] (mean %.4f) misses the committed [%.4f, %.4f] (mean %.4f)",
				c.ID, c.Lo, c.Hi, c.Mean, w.Lo, w.Hi, w.Mean)
		}
		delete(committed, c.ID)
	}
	for id := range committed {
		t.Errorf("committed cell %s is no longer produced", id)
	}
	for i, c := range got.Claims {
		if w := want.Claims[i]; c.Verdict != w.Verdict {
			t.Errorf("%s claim %q: verdict %s, committed %s", c.Exp, c.Text, c.Verdict, w.Verdict)
		}
	}
	if !slices.Equal(got.Experiments, want.Experiments) {
		t.Errorf("experiment verdicts %v, committed %v", got.Experiments, want.Experiments)
	}
}

// The ledger blocks of EXPERIMENTS.md: one an experiment, rendered from
// EXPERIMENTS.json alone and never edited by hand.
const (
	blockOpen  = "<!-- ledger "
	blockClose = "<!-- /ledger -->"
)

// readLedgerDoc reads the committed ledger and EXPERIMENTS.md.
func readLedgerDoc(t *testing.T) (ledger, string) {
	t.Helper()
	raw, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(docFile)
	if err != nil {
		t.Fatal(err)
	}
	return l, string(doc)
}

// renderDoc returns doc with every ledger block rendered from l, and the
// experiments whose block that changed. It fails on a block of no
// experiment, a second block of one, an unclosed block, and an
// experiment without a block.
func renderDoc(doc string, l ledger) (string, []string, error) {
	byID := map[string]ledgerExp{}
	for _, e := range l.Experiments {
		byID[e.ID] = e
	}
	seen := map[string]bool{}
	var out strings.Builder
	var changed []string
	lines := strings.SplitAfter(doc, "\n")
	for i := 0; i < len(lines); i++ {
		out.WriteString(lines[i])
		id, ok := strings.CutPrefix(strings.TrimSuffix(lines[i], "\n"), blockOpen)
		if !ok {
			continue
		}
		id = strings.TrimSuffix(id, " -->")
		e, known := byID[id]
		switch {
		case !known:
			return "", nil, fmt.Errorf("EXPERIMENTS.md:%d: a ledger block of no experiment, %q", i+1, id)
		case seen[id]:
			return "", nil, fmt.Errorf("EXPERIMENTS.md:%d: a second ledger block of %s", i+1, id)
		}
		seen[id] = true
		var body strings.Builder
		for i++; i < len(lines) && strings.TrimSuffix(lines[i], "\n") != blockClose; i++ {
			body.WriteString(lines[i])
		}
		if i == len(lines) {
			return "", nil, fmt.Errorf("EXPERIMENTS.md: the ledger block of %s has no %q", id, blockClose)
		}
		want := renderBlock(l, e)
		if body.String() != want {
			changed = append(changed, id)
		}
		out.WriteString(want)
		out.WriteString(lines[i])
	}
	for _, e := range l.Experiments {
		if !seen[e.ID] {
			return "", nil, fmt.Errorf("EXPERIMENTS.md has no ledger block %q%s -->", blockOpen, e.ID)
		}
	}
	return out.String(), changed, nil
}

// renderBlock is e's block: its heading with the verdict, a table of
// every stored cell of e as "mean [lo, hi]", and a bullet a claim.
func renderBlock(l ledger, e ledgerExp) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s (%s)\n\n", e.Heading, e.Verdict)
	var rows, cols []string
	cells := map[[2]string]ledgerCell{}
	for _, c := range l.Cells {
		exp, rest, _ := strings.Cut(c.ID, "/")
		if exp != e.ID {
			continue
		}
		i := strings.LastIndex(rest, "/")
		r, col := rest[:i], rest[i+1:]
		if !slices.Contains(rows, r) {
			rows = append(rows, r)
		}
		if !slices.Contains(cols, col) {
			cols = append(cols, col)
		}
		cells[[2]string{r, col}] = c
	}
	if len(rows) > 0 {
		b.WriteString("| |")
		for _, col := range cols {
			b.WriteString(" " + col + " |")
		}
		b.WriteString("\n|---|" + strings.Repeat("---|", len(cols)) + "\n")
		for _, r := range rows {
			b.WriteString("| " + r + " |")
			for _, col := range cols {
				if c, ok := cells[[2]string{r, col}]; ok {
					fmt.Fprintf(&b, " %s [%s, %s] |", num(c.Mean), num(c.Lo), num(c.Hi))
				} else {
					b.WriteString(" — |")
				}
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	for _, c := range l.Claims {
		if c.Exp == e.ID {
			fmt.Fprintf(&b, "- %s %s\n", c.Verdict, c.Text)
		}
	}
	return b.String()
}

// num is the one number format of the blocks: the stored value, in the
// fewest digits that read back to it.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// TestLedgerBlocks holds every ledger block of EXPERIMENTS.md, byte for
// byte, to its rendering from EXPERIMENTS.json. A block that differs is
// rewritten by go test ./internal/experiments -run TestLedger -update.
func TestLedgerBlocks(t *testing.T) {
	l, doc := readLedgerDoc(t)
	rendered, changed, err := renderDoc(doc, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) == 0 {
		return
	}
	have, want := strings.Split(doc, "\n"), strings.Split(rendered, "\n")
	for i := range min(len(have), len(want)) {
		if have[i] != want[i] {
			t.Errorf("EXPERIMENTS.md:%d reads\n\t%s\nwhere EXPERIMENTS.json renders\n\t%s", i+1, have[i], want[i])
			break
		}
	}
	t.Errorf("the ledger blocks of %v differ from their rendering; re-render with -run TestLedger -update", changed)
}
