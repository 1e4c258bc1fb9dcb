// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 9) on the synthetic corpora: Table 2 (annotator
// agreement), Fig 7 (intention categories), Sec 9.1.2.A (CM vs term
// segmentation), Fig 8 (border mechanisms), Fig 9 (coherence/depth
// functions), Table 3 (segment granularity), Fig 3 (intention centroids),
// Table 4 / Fig 10 (mean precision), Table 5 (test corpus), Fig 11 and
// Table 6 (scaling), the Health out-of-sample row, plus ablations of the
// design choices. Each runner returns one table; render prints it the
// way the paper lays it out, and the ledger test (EXPERIMENTS.json)
// checks the paper's claims against its cells.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/forum"
)

// Options scales the experiments. The defaults keep a full run in the
// minutes range on a laptop; raise Scale (and the Fig 11 sizes) to approach
// the paper's corpus sizes.
type Options struct {
	// Scale is the per-domain corpus size for the effectiveness
	// experiments. 300 when 0.
	Scale int
	// Queries is the number of reference posts evaluated per dataset.
	// 60 when 0.
	Queries int
	// Annotators is the simulated annotator pool size. 12 when 0 (the
	// paper had 30; agreement statistics stabilize well before that).
	Annotators int
	// SegmentationPosts is the per-domain sample for the segmentation
	// study (the paper used 500 HP + 100 TripAdvisor posts). 200 when 0.
	SegmentationPosts int
	// Sizes are the Fig 11 collection sizes. {1000, 10000, 100000} when
	// nil — pass smaller sizes for quick runs.
	Sizes []int
	// Table6Posts is the StackOverflow-scale collection size (paper:
	// 1.5M). 20000 when 0.
	Table6Posts int
	// Seed drives all generation and randomized algorithms.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 300
	}
	if o.Queries <= 0 {
		o.Queries = 60
	}
	if o.Annotators <= 0 {
		o.Annotators = 12
	}
	if o.SegmentationPosts <= 0 {
		o.SegmentationPosts = 200
	}
	if o.Sizes == nil {
		o.Sizes = []int{1000, 10000, 100000}
	}
	if o.Table6Posts <= 0 {
		o.Table6Posts = 20000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// segmentationDomains are the two datasets of the paper's user study.
var segmentationDomains = []forum.Domain{forum.TechSupport, forum.Travel}

// allDomains are the three evaluation datasets of Table 4.
var allDomains = []forum.Domain{forum.TechSupport, forum.Travel, forum.Programming}

// table is one experiment's result: a title, the column names
// (Columns[0] heads the row labels) and labelled rows of numbers.
type table struct {
	Title   string
	Columns []string
	Rows    []row
}

// row is one labelled row; Cells[i] sits under Columns[i+1]. A row may
// stop short of the last columns.
type row struct {
	Label string
	Cells []cell
}

// cell is one number and the fmt verb that prints it.
type cell struct {
	V      float64
	Format string
}

// cells pairs every value with one format.
func cells(format string, vs ...float64) []cell {
	out := make([]cell, len(vs))
	for i, v := range vs {
		out[i] = cell{v, format}
	}
	return out
}

// render prints t as its title over a fixed-width text table.
func (t table) render() string {
	lines := [][]string{t.Columns}
	widths := make([]int, len(t.Columns))
	for _, r := range t.Rows {
		line := []string{r.Label}
		for _, c := range r.Cells {
			line = append(line, fmt.Sprintf(c.Format, c.V))
		}
		lines = append(lines, line)
	}
	for _, line := range lines {
		for i, s := range line {
			widths[i] = max(widths[i], len(s))
		}
	}
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	for n, line := range lines {
		for i, s := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
		if n == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
