// Command bench is the repository's benchmark: it builds a seeded
// forum corpus, sets the related-posts service up the way cmd/serve
// does, drives it over loopback HTTP (a closed loop, and an open one in
// the per-layer pass), checks the answers against an oracle, and prints
// every metric by name. See README.md in this directory.
//
//	go run ./bench                                  every workload, both passes, fresh process each
//	go run ./bench -workload read_uniform           one end-to-end pass
//	go run ./bench -workload read_uniform -trace 1  one per-layer pass; writes bench/out/trace-read_uniform.json
//	go run ./bench -selfcheck                       every workload twice; fails if two runs of the same code disagree
//	go run ./bench -smoke                           seconds-long run of every code path, no timing asserted
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	name := flag.String("workload", "", "workload to run (empty: all of them, each pass in a fresh process)")
	seed := flag.Int64("seed", 42, "seed of the traffic: which posts are asked about, in which order (the collection is a fixed dataset)")
	seconds := flag.Int("seconds", 16, "how long the timed rounds are sized to take together on the seed commit")
	trace := flag.Int("trace", 0, "1 runs the per-layer pass and writes the trace file, 0 the end-to-end pass")
	smoke := flag.Bool("smoke", false, "tiny corpus, a few hundred operations, every workload and both passes in this process")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound in BENCHMARK.json")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for trace files, self-check reports and temporary snapshots")
	flag.Parse()

	var err error
	switch {
	case *smoke:
		err = runSmoke(os.Stdout, *out)
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds, *out)
	case *name == "":
		_, err = runAll(*seed, *seconds, *out, true)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		if *seconds < 1 {
			fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
			os.Exit(2)
		}
		var res result
		res, err = runWorkload(runConfig{w: w, seed: *seed, sz: fullSizes(w, *seconds), trace: *trace == 1, outDir: *out, log: os.Stdout})
		if res.Metrics != nil {
			fmt.Println(string(mustJSON(res)))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSmoke runs every workload through both passes in this process at
// smokeSizes. It checks answers, never timings.
func runSmoke(log io.Writer, outDir string) error {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if _, err := runWorkload(runConfig{w: w, seed: 42, sz: smokeSizes(), trace: trace, outDir: outDir, log: log}); err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.name, trace, err)
			}
		}
	}
	return nil
}

// runAll runs every workload in a fresh process per pass, so each
// set-up is cold, and returns the end-to-end results by workload.
func runAll(seed int64, seconds int, outDir string, withTrace bool) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := make(map[string]result)
	passes := []int{0}
	if withTrace {
		passes = []int{0, 1}
	}
	for _, w := range workloads {
		for _, trace := range passes {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir)
			var stdout bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			if trace == 1 {
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return nil, fmt.Errorf("%s: reading the result line: %w", w.name, err)
			}
			results[w.name] = res
		}
	}
	return results, nil
}

// selfcheckRow is one end-to-end metric of one workload in both runs.
type selfcheckRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Diff     float64 `json:"diff_share_of_first"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within_bound"`
}

// runSelfcheck measures the same code twice and holds the benchmark to
// its own bounds: the two runs must agree on every end-to-end metric of
// every workload within the bound BENCHMARK.json fixes for it (a run
// with a failed operation has already ended the self-check). Both
// result sets go to outDir.
func runSelfcheck(seed int64, seconds int, outDir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the self-check reads its bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var runs [2]map[string]result
	for i := range runs {
		if runs[i], err = runAll(seed, seconds, outDir, false); err != nil {
			return err
		}
	}
	var rows []selfcheckRow
	disagree := 0
	for _, w := range workloads {
		a, b := runs[0][w.name], runs[1][w.name]
		for _, e := range spec.EndToEnd {
			first, second := a.Metrics[e.Name], b.Metrics[e.Name]
			row := selfcheckRow{Workload: w.name, Metric: e.Name, Unit: first.Unit, First: first.Value, Second: second.Value, Bound: e.Bound}
			row.Diff = math.Abs(second.Value-first.Value) / first.Value
			row.Within = row.Diff <= e.Bound
			if !row.Within {
				disagree++
			}
			rows = append(rows, row)
			fmt.Printf("selfcheck: %-16s %-16s %12.4f %12.4f %-6s differ %5.1f%%  bound %4.1f%%  within %v\n",
				w.name, e.Name, first.Value, second.Value, first.Unit, 100*row.Diff, 100*e.Bound, row.Within)
		}
	}
	path := filepath.Join(outDir, "selfcheck.json")
	report := map[string]any{"seed": seed, "seconds": seconds, "first": runs[0], "second": runs[1], "differences": rows}
	if err := os.WriteFile(path, mustJSON(report), 0o644); err != nil {
		return err
	}
	fmt.Println("selfcheck: both result sets and their differences are in", path)
	if disagree > 0 {
		return fmt.Errorf("two runs of the same code disagree beyond the benchmark's own bounds in %d places", disagree)
	}
	return nil
}
