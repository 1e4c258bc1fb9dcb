// Command experiments regenerates the paper's tables and figures on the
// synthetic corpora.
//
// Usage:
//
//	experiments -exp table4                 # one experiment
//	experiments -exp all -scale 1000        # everything, bigger corpora
//	experiments -exp fig11 -sizes 1000,10000,100000
//	experiments -exp table6 -table6 200000  # StackOverflow-scale run
//
// Experiment ids: table2 fig7 cmvsterm fig8 fig9 table3 fig3 table4 fig10
// table5 fig11 table6 ablations health all. A negative -scale, -queries,
// -annotators, -segposts or -table6, and a collection size below 1, exit
// 2 with the error. The paper's claims are checked against these
// runs by internal/experiments' TestLedger (EXPERIMENTS.json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// run is the command over args, printing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id to run ("+strings.Join(experiments.Names(), ", ")+")")
	scale := fs.Int("scale", 0, "per-domain corpus size for effectiveness experiments (default 300)")
	queries := fs.Int("queries", 0, "reference posts evaluated per dataset (default 60)")
	annotators := fs.Int("annotators", 0, "simulated annotator pool size (default 12)")
	segPosts := fs.Int("segposts", 0, "posts in the segmentation study sample (default 200)")
	sizes := fs.String("sizes", "", "comma-separated Fig 11 collection sizes (default 1000,10000,100000)")
	table6 := fs.Int("table6", 0, "Table 6 collection size (default 20000; paper used 1.5M)")
	seed := fs.Int64("seed", 0, "random seed (default 42)")
	obsReport := fs.Bool("obs", true, "record obs metrics during the run and append the snapshot to the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// 0 asks for the default; below it is a mistake, not a default.
	for _, f := range []struct {
		name string
		v    int
	}{{"scale", *scale}, {"queries", *queries}, {"annotators", *annotators}, {"segposts", *segPosts}, {"table6", *table6}} {
		if f.v < 0 {
			return fmt.Errorf("experiments: -%s %d is negative", f.name, f.v)
		}
	}
	if *obsReport {
		obs.Enable()
	}

	opt := experiments.Options{
		Scale:             *scale,
		Queries:           *queries,
		Annotators:        *annotators,
		SegmentationPosts: *segPosts,
		Table6Posts:       *table6,
		Seed:              *seed,
	}
	if *sizes != "" {
		for _, part := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("experiments: bad -sizes value %q: %v", part, err)
			}
			opt.Sizes = append(opt.Sizes, n)
		}
	}

	out, err := experiments.Run(*exp, opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, out)

	if *obsReport {
		// The same per-phase spans cmd/serve exposes on /metrics, here as
		// an end-of-run digest: build.segment is Fig 11(a), build.vectorize
		// + build.cluster + build.refine are Fig 11(b), match.query /
		// core.related are Fig 11(c). See EXPERIMENTS.md, "Fig 11".
		fmt.Fprintln(stdout, "## obs snapshot")
		for _, line := range obs.Default.Snapshot().SummaryLines() {
			fmt.Fprintln(stdout, line)
		}
	}
	return nil
}
