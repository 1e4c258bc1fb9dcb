//go:build ignore

// Command mutants runs the mutant catalogue: each row below is one
// deliberate fault, and the tests are worth what they catch of them.
//
//	go run scripts/mutants.go
//
// For every row it copies the module (without .git) to a temporary
// directory, replaces the row's anchor — which must occur exactly once
// in its file — and runs the suite once, `go test -count=1 -json`, over
// the packages whose test binaries link the mutated package (`go list
// -test -deps`) and internal/experiments, whose tests read repository
// files.
// The tests that fail, a test that hangs past the timeout among them
// (its package then runs again without it), and any package that fails
// without a failing test, are the mutant's row of the kill matrix.
// Then it runs the row's named tests again, runs times each (the full
// pass counts as the first), and prints the verdict:
//
//   - killed, or flaky: a fault a named killer catches every run, or
//     only some (each named test's k of n runs is printed);
//   - survived: no run of a named killer failed;
//   - equivalent: a row marked so changes cost, never a score, and its
//     named score tests must pass every run;
//   - error: the anchor is missing or repeated, or the mutant does not
//     compile. A build failure is never a kill.
//
// It exits 1 when a non-equivalent row survives, an equivalent row
// fails a score test, or a row errs. The tests build with -trimpath so
// that the copies, each in its own directory, share the build cache.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// module is the module path, which the tree's import paths start with.
const module = "repro"

// runs is how often a row's named tests are run, the full pass included,
// unless the row asks for more.
const runs = 3

// timeout bounds a package's tests: a mutant can make a test wait for
// something that never comes, and the slowest package takes 30 s.
const timeout = "2m"

// chunk is how many runs of a row's named tests one go test makes: the
// slowest killer, the history checker, takes about 2 s.
const chunk = 20

// mutant is one row of the catalogue.
type mutant struct {
	name, aim    string
	file, anchor string
	repl         string
	// killers are the tests, "<pkg>.<test>" with pkg the last element of
	// the package path, that must catch the fault. For an equivalent row
	// they are the score tests that must not.
	killers    []string
	equivalent bool
	runs       int // 0 means runs; a fault caught now and then needs more
}

// model, history, golden and pinned are the kept proofs the rows name
// most.
const (
	model   = "serve.TestEnginesMatchModel"
	history = "serve.TestHistoriesMatchModel"
	oracle  = "segment.TestStrategiesMatchReference"
	golden  = "core.TestRelatedGolden"
	pinned  = "core.TestSnapshotBytesPinned"
)

var catalogue = []mutant{
	// The model test's regressions (serve/model_test.go, modelRegressions).
	{
		name: "theta-strict", aim: "Alg 1: a unit scoring exactly θ is kept for the id tie-break",
		file:    "internal/index/accum.go",
		anchor:  "if s < bar || (exclude != nil && exclude(base+i)) {",
		repl:    "if s <= bar || (exclude != nil && exclude(base+i)) {",
		killers: []string{model},
	},
	{
		name: "commit-no-epoch", aim: "cache: every commit moves the epoch",
		file:    "internal/match/incremental.go",
		anchor:  "\tmr.gen.Add(1)\n\treturn docID",
		repl:    "\treturn docID",
		killers: []string{model, history},
	},
	{
		name: "shard-df-local", aim: "Eq 9: a shard scores with the collection's df",
		file:    "internal/index/stats.go",
		anchor:  "return ix.global.dfLocked(term)",
		repl:    "return ix.list(term).len()",
		killers: []string{model},
	},
	{
		name: "sums-term-id-order", aim: "Eq 9: sums run in term order, not arrival order",
		file:    "internal/index/dict.go",
		anchor:  "\tSortByTerm(terms, ids)\n\tn := 0",
		repl:    "\tslices.Sort(ids)\n\tn := 0",
		killers: []string{model, golden},
	},
	{
		name: "degraded-no-epoch", aim: "cache: a coordinator's degradation moves the epoch",
		file:    "internal/fleet/coordinator.go",
		anchor:  "\tif degraded {\n\t\tc.cacheGen.Add(1)\n\t}",
		repl:    "\t_ = degraded",
		killers: []string{model},
	},
	{
		name: "partial-cached", aim: "cache: a partial answer is never stored",
		file:    "internal/serve/hygiene.go",
		anchor:  "if s.cache != nil && !entry.Partial {",
		repl:    "if s.cache != nil {",
		killers: []string{model},
	},

	// Eq 7–9, Algorithms 1 and 2.
	{
		name: "eq9-floor", aim: "Eq 9: pIDF floored at zero",
		file:    "internal/index/index.go",
		anchor:  "\tif v < 0 {\n\t\treturn 0\n\t}\n\treturn v",
		repl:    "\treturn v",
		killers: []string{model, golden},
	},
	{
		name: "eq8-no-nu", aim: "Eq 8: the NU length normalisation",
		file:    "internal/index/index.go",
		anchor:  "return max(float64(unique)/avgUnique, 1)",
		repl:    "return 1",
		killers: []string{model, golden},
	},
	{
		name: "eq7-no-plus-one", aim: "Eq 7: the weight numerator log(TF) + 1",
		file:    "internal/index/index.go",
		anchor:  "t[tf] = portlog.Log(float64(tf)) + 1",
		repl:    "t[tf] = portlog.Log(float64(tf)) + 2",
		killers: []string{model, golden},
	},
	{
		name: "list-depth-k", aim: "Alg 1: lists n = 2k deep",
		file:    "internal/match/mr.go",
		anchor:  "func (MRConfig) ListDepth(k int) int { return 2 * k }",
		repl:    "func (MRConfig) ListDepth(k int) int { return k }",
		killers: []string{model, golden},
	},
	{
		name: "lists-keep-self", aim: "Alg 1: the query document is cut from its lists, not from the sum",
		file:    "internal/match/mr.go",
		anchor:  "lists := mr.clusterListsLocked(probes, n, docID, nil, tr)",
		repl:    "lists := mr.clusterListsLocked(probes, n, -1, nil, tr)",
		killers: []string{model, golden},
	},
	{
		name: "tie-unit-descending", aim: "Alg 1: equal scores rank by ascending id",
		file:    "internal/index/accum.go",
		anchor:  "\treturn a.Unit > b.Unit\n",
		repl:    "\treturn a.Unit < b.Unit\n",
		killers: []string{model},
	},
	{
		name: "merge-worst-head", aim: "Alg 2: the shard merge takes the best head",
		file:    "internal/shard/directory.go",
		anchor:  "if from < 0 || head.Before(best) {",
		repl:    "if from < 0 || best.Before(head) {",
		killers: []string{model, "shard.TestMergeMatchesReference"},
	},
	{
		name: "theta-raise-gt", aim: "θ: Raise on > instead of >= (cost only: one more CAS of the same value)",
		file:       "internal/index/frozen.go",
		anchor:     "math.Float64frombits(old) >= s ||",
		repl:       "math.Float64frombits(old) > s ||",
		killers:    []string{model, golden, "shard.TestThetaLegOrders"},
		equivalent: true,
	},
	{
		name: "dense-probe-flip", aim: "scan: the dense/bitset drain choice (cost only)",
		file:       "internal/index/accum.go",
		anchor:     "{ return postings >= int64(units) }",
		repl:       "{ return postings < int64(units) }",
		killers:    []string{model, golden, pinned},
		equivalent: true,
	},

	// Refinement and the add path.
	{
		name: "refine-build-first-only", aim: "Sec 6: a refined segment concatenates its members (build)",
		file:    "internal/match/mr.go",
		anchor:  "for _, r := range refs[gr.lo:gr.hi] {",
		repl:    "for _, r := range refs[gr.lo : gr.lo+1] {",
		killers: []string{model, golden, pinned},
	},
	{
		name: "refine-add-last-only", aim: "Sec 6: a refined segment concatenates its members (add)",
		file:    "internal/match/incremental.go",
		anchor:  "mr.dict.AppendIDs(merged[c].tokens, d.Terms(r[0], r[1]))",
		repl:    "mr.dict.AppendIDs(nil, d.Terms(r[0], r[1]))",
		killers: []string{model, pinned},
	},
	{
		name: "add-before-dropped", aim: "Table 3: an add records its pre-refinement segment count",
		file:    "internal/match/incremental.go",
		anchor:  "\tmr.before = append(mr.before, int32(pa.numRanges))\n",
		repl:    "\n",
		killers: []string{history},
	},
	// core.Pipeline.mu hides the gap: only a read caught between HasDoc
	// and the matcher's read lock sees half a document, about one history
	// in ten, so the row runs 80 times (ROADMAP, "one prefix").
	{
		name: "commit-two-locks", aim: "commit: one write-lock section",
		file:    "internal/match/incremental.go",
		anchor:  "\tfor c := 0; c < len(mr.clusters); c++ {\n\t\tseg, ok := pa.merged[c]",
		repl:    "\tfor c := 0; c < len(mr.clusters); c++ {\n\t\tif c == len(mr.clusters)/2 {\n\t\t\tmr.mu.Unlock()\n\t\t\tmr.mu.Lock()\n\t\t}\n\t\tseg, ok := pa.merged[c]",
		killers: []string{history},
		runs:    80,
	},

	// Explain.
	{
		name: "explain-zero-idf", aim: "explain: a term of zero pIDF is no summand",
		file:    "internal/index/index.go",
		anchor:  "if !ok || tIDF == 0 {",
		repl:    "if !ok {",
		killers: []string{model},
	},
	{
		name: "explain-no-qf", aim: "explain: a term's product includes its query TF",
		file:    "internal/index/index.go",
		anchor:  "Product: qf[i] * w * tIDF}",
		repl:    "Product: w * tIDF}",
		killers: []string{model},
	},
	{
		name: "explain-cluster-total", aim: "explain: a cluster contributes its list score",
		file:    "internal/match/explain.go",
		anchor:  "\t\t\t\t\tScore:   lr.Score,",
		repl:    "\t\t\t\t\tScore:   r.Score,",
		killers: []string{model},
	},
	{
		name: "explain-wire-smallest", aim: "explain: the wire keeps a cluster's largest |contribution| terms",
		file:    "internal/serve/serve.go",
		anchor:  "return ca > cb",
		repl:    "return ca < cb",
		killers: []string{model},
	},

	{
		name: "shard-explain-unit0", aim: "explain: a shard explains its first unit of a cluster",
		file:    "internal/match/explain.go",
		anchor:  "if u, ok := mr.unitOf(q.Cluster, localDoc); ok {",
		repl:    "if u, ok := mr.unitOf(q.Cluster, localDoc); ok && u > 0 {",
		killers: []string{model},
	},

	// The sharded and networked surfaces.
	{
		name: "shard-docs-first", aim: "stats: each shard reports its own document count",
		file:    "internal/shard/directory.go",
		anchor:  "out[s] = len(d.global[s])",
		repl:    "out[s] = len(d.global[0])",
		killers: []string{history},
	},
	{
		name: "rpc-kind-dropped", aim: "HTTP: a typed error keeps its kind across a socket",
		file:    "internal/serve/serve.go",
		anchor:  "status, kind, msg = rpc.Status, rpc.Kind, rpc.Msg",
		repl:    "status, msg = rpc.Status, rpc.Msg",
		killers: []string{model},
	},

	// Serving hygiene.
	{
		name: "flight-no-k", aim: "singleflight: followers share a flight only for the same k",
		file:    "internal/cache/singleflight.go",
		anchor:  "(Entry, error, bool) {\n\tf.mu.Lock()",
		repl:    "(Entry, error, bool) {\n\tkey.K = 0\n\tf.mu.Lock()",
		killers: []string{history},
	},
	{
		name: "admission-unbounded", aim: "admission: the wait queue is bounded",
		file:    "internal/cache/admit.go",
		anchor:  "if len(a.queue) >= a.maxQueued {",
		repl:    "if len(a.queue) < 0 {",
		killers: []string{"serve.TestServerContract"},
	},

	// The fleet.
	{
		name: "hedge-t10", aim: "fleet: a leg hedges at T/20",
		file:    "internal/fleet/coordinator.go",
		anchor:  "return o.Timeout / 20 }",
		repl:    "return o.Timeout / 10 }",
		killers: []string{"fleet.TestOptionsDefaults"},
	},
	{
		name: "leg-retries-1", aim: "fleet: a leg retries twice",
		file:    "internal/fleet/coordinator.go",
		anchor:  "const legRetries = 2",
		repl:    "const legRetries = 1",
		killers: []string{"fleet.TestOptionsDefaults"},
	},
	{
		name: "reply-order-unchecked", aim: "trust boundary: a reply's lists are checked sorted",
		file:    "internal/fleet/coordinator.go",
		anchor:  "case j > 0 && !l[j-1].Before(r):",
		repl:    "case j < 0:",
		killers: []string{"fleet.TestCoordinatorRejectsForgedLists"},
	},
	{
		name: "explain-count-unchecked", aim: "trust boundary: an explain reply has one item a request item",
		file:    "internal/fleet/coordinator.go",
		anchor:  "len(r.Items) != want {",
		repl:    "len(r.Items) < 0 {",
		killers: []string{"fleet.FuzzCoordinatorReplies"},
	},
	{
		name: "reply-docs-unchecked", aim: "trust boundary: a reply grows the collection a bounded step",
		file:    "internal/fleet/coordinator.go",
		anchor:  "bad == nil && docs-n > max(n, growthStep) {",
		repl:    "bad == nil && false && docs-n > max(n, growthStep) {",
		killers: []string{"fleet.FuzzCoordinatorReplies"},
	},

	// Portability and the text front end.
	{
		name: "portlog-fma", aim: "no score depends on the CPU: portlog's products are rounded",
		file:    "internal/portlog/log.go",
		anchor:  "(float64(s*(hfsq+R)) + float64(k*Ln2Lo))",
		repl:    "math.FMA(s, hfsq+R, float64(k*Ln2Lo))",
		killers: []string{"portlog.TestLogMatchesMathOnIDF"},
	},
	{
		name: "word-hash-only", aim: "front end: a word record is returned only for its own text",
		file:    "internal/cm/word.go",
		anchor:  "if w := slot.Load(); w != nil && w.text == text {",
		repl:    "if w := slot.Load(); w != nil {",
		killers: []string{"cm.TestWordMemoConcurrent"},
	},

	// Segmentation (Sec 5.2–5.3). The model takes Greedy's borders as
	// they are; the segmenter's oracle scores every border from the
	// annotation counts itself.
	{
		name: "vote-tie-removes", aim: "Sec 5.3: a border the vote ties on survives",
		file:    "internal/segment/strategies.go",
		anchor:  "marks[i] <= def {",
		repl:    "marks[i] < def {",
		killers: []string{oracle, golden},
	},
	{
		name: "vote-no-abstain", aim: "Sec 5.3: a mean without depth at a border abstains",
		file:    "internal/segment/strategies.go",
		anchor:  "case depths[i] < greedyMinDepth:",
		repl:    "case depths[i] < 0:",
		killers: []string{oracle, golden},
	},
	{
		name: "eq1-natural-log", aim: "Eq 1: Shannon's index takes log base 10",
		file:    "internal/cm/diversity.go",
		anchor:  "row[c] = p * portlog.Log10(p)",
		repl:    "row[c] = p * portlog.Log(p)",
		killers: []string{oracle, golden},
	},
	{
		name: "eq2-four-means", aim: "Eq 2: coherence averages over the five means",
		file:    "internal/cm/diversity.go",
		anchor:  "\t\tsum += 1.0 - shannonIndex(a.Counts[lo:hi])\n\t}\n\treturn sum / float64(NumMeans)",
		repl:    "\t\tsum += 1.0 - shannonIndex(a.Counts[lo:hi])\n\t}\n\treturn sum / float64(NumMeans-1)",
		killers: []string{oracle},
	},
	{
		name: "eq3-depth-halved", aim: "Eq 3: depth divides by twice the merged coherence",
		file:    "internal/cm/diversity.go",
		anchor:  "/ (2 * cohMerged)",
		repl:    "/ cohMerged",
		killers: []string{oracle, golden},
	},
	{
		name: "eq3-zero-guard", aim: "Eq 3: a merged span of coherence 0 has depth 0",
		file:    "internal/cm/diversity.go",
		anchor:  "\tif cohMerged == 0 {\n\t\treturn 0\n\t}\n",
		repl:    "",
		killers: []string{"cm.TestScoreBorderDeepVsShallow"},
	},
	{
		name: "eq4-no-depth", aim: "Eq 4: the border score averages both coherences and the depth",
		file:    "internal/cm/diversity.go",
		anchor:  "return (cohLeft + cohRight + depth) / 3",
		repl:    "return (cohLeft + cohRight) / 2",
		killers: []string{oracle, golden},
	},
	{
		name: "table1-perfect-present", aim: "Table 1: a perfect participle is a past verb group",
		file:    "internal/cm/annotate.go",
		anchor:  "// Perfect aspect reports a past event.\n\t\t\tif tagged[i].Tag == pos.VerbPastPart {\n\t\t\t\treturn TensePast",
		repl:    "// Perfect aspect reports a past event.\n\t\t\tif tagged[i].Tag == pos.VerbPastPart {\n\t\t\t\treturn TensePresent",
		killers: []string{"cm.TestAnnotatePerfectIsPast"},
	},

	// Intention clusters (Sec 6). The model vectorises each segment
	// itself and holds the reference matcher's centroids and clusters
	// to its vectors.
	{
		name: "eq5-all-means", aim: "Eq 5: a weight is a share of its own mean's observations",
		file:    "internal/cm/vector.go",
		anchor:  "total := seg.Total(m)",
		repl:    "total := seg.Total(Tense) + seg.Total(Subject) + seg.Total(Style) + seg.Total(Status) + seg.Total(PartOfSpeech)",
		killers: []string{model},
	},
	{
		name: "kmeans-stops-early", aim: "k-means: Lloyd's iteration runs until no label moves",
		file:    "internal/cluster/kmeans.go",
		anchor:  "if !changed.Load() && iter > 0 {",
		repl:    "if iter > 0 {",
		killers: []string{model},
	},
	{
		name: "add-second-nearest", aim: "Sec 9.2: an added segment joins its nearest centroid",
		file:    "internal/match/incremental.go",
		anchor:  "\t\tif d < bestD {\n\t\t\tbest, bestD = c, d\n\t\t}\n\t}\n\treturn best",
		repl:    "\t\tif d < bestD {\n\t\t\tbest, bestD = c, d\n\t\t}\n\t}\n\treturn secondNearest(centroids, vec, best)\n}\n\nfunc secondNearest(centroids [][]float64, vec []float64, nearest int) int {\n\tbest, bestD := nearest, math.Inf(1)\n\tfor c, cent := range centroids {\n\t\tvar d float64\n\t\tfor i := range cent {\n\t\t\tdiff := cent[i] - vec[i]\n\t\t\td += float64(diff * diff)\n\t\t}\n\t\tif c != nearest && d < bestD {\n\t\t\tbest, bestD = c, d\n\t\t}\n\t}\n\treturn best",
		killers: []string{model},
	},
}

// event is the part of a `go test -json` line the runner reads.
type event struct {
	Action, Package, Test, ImportPath, Output string
}

// outcome is what one `go test -json` invocation showed: per test
// ("pkg.Test", top-level names) the runs that finished and the runs that
// failed, a test that hung among them; packages that failed with no
// failing test ("pkg.(package)"); the packages that did not build; and
// per package the test that hung, which ended the package's run.
type outcome struct {
	runs, failed map[string]int
	noBuild      []string
	hung         map[string]string
}

// short turns an import path into the pkg of "pkg.Test".
func short(importPath string) string { return importPath[strings.LastIndex(importPath, "/")+1:] }

// goTest runs go test count times in dir with args and parses its
// events.
func goTest(dir string, count int, args ...string) (outcome, error) {
	cmd := exec.Command("go", append([]string{"test", "-count", strconv.Itoa(count), "-json", "-timeout", timeout}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-trimpath")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return outcome{}, err
	}
	if err := cmd.Start(); err != nil {
		return outcome{}, err
	}
	o := outcome{runs: map[string]int{}, failed: map[string]int{}, hung: map[string]string{}}
	pkgFailed, testFailed, running := map[string]bool{}, map[string]bool{}, map[string]bool{}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e event
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		top, _, sub := strings.Cut(e.Test, "/")
		name := short(e.Package) + "." + top
		switch {
		case e.Action == "build-fail":
			o.noBuild = append(o.noBuild, e.ImportPath)
		case e.Test == "":
			pkgFailed[e.Package] = pkgFailed[e.Package] || e.Action == "fail"
		case e.Action == "output" && running[name] && strings.HasPrefix(e.Output, "panic: "):
			// A panic ends the binary. Off the test's goroutine or on a
			// timeout no fail event follows, and a fuzz seed's comes
			// after it: the run is counted here, once.
			running[name] = false
			o.runs[name]++
			o.failed[name]++
			testFailed[e.Package] = true
			if strings.HasPrefix(e.Output, "panic: test timed out") {
				o.hung[e.Package] = top
			}
		case sub:
		case e.Action == "run":
			running[name] = true
		case !running[name]: // a panic counted its run
		case e.Action == "pass" || e.Action == "fail":
			running[name] = false
			o.runs[name]++
			if e.Action == "fail" {
				o.failed[name]++
				testFailed[e.Package] = true
			}
		}
	}
	err = cmd.Wait()
	for p, failed := range pkgFailed {
		if failed && !testFailed[p] {
			o.failed[short(p)+".(package)"]++
		}
	}
	if _, exit := err.(*exec.ExitError); exit && (len(o.failed) > 0 || len(o.noBuild) > 0) {
		err = nil // failing tests are what the runner is after
	}
	if err != nil {
		return o, fmt.Errorf("%v: %s", err, stderr.Bytes())
	}
	return o, nil
}

// apply writes m into the copy at dir.
func (m mutant) apply(dir string) error {
	path := filepath.Join(dir, m.file)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if n := strings.Count(string(src), m.anchor); n != 1 {
		return fmt.Errorf("anchor occurs %d times in %s", n, m.file)
	}
	return os.WriteFile(path, []byte(strings.Replace(string(src), m.anchor, m.repl, 1)), 0o644)
}

// pkgDir is the directory of the package a killer names.
func pkgDir(root, pkg string) string {
	for _, d := range []string{"internal/" + pkg, "cmd/" + pkg, pkg} {
		if _, err := os.Stat(filepath.Join(root, d)); err == nil {
			return "./" + d
		}
	}
	return "./" + pkg
}

// result is one row's verdict.
type result struct {
	m      mutant
	full   []string       // every test the full pass failed
	kills  map[string]int // per named test, the runs it failed in
	n      map[string]int // and the runs it finished
	status string
	err    error
}

func (r *result) verdict() {
	best, all := 0, false
	for _, t := range r.m.killers {
		if r.n[t] == 0 && r.err == nil {
			r.err = fmt.Errorf("%s never ran", t)
		}
		best, all = max(best, r.kills[t]), all || r.kills[t] > 0 && r.kills[t] == r.n[t]
	}
	switch {
	case r.err != nil:
		r.status = "error"
	case r.m.equivalent && best == 0:
		r.status = "equivalent"
	case r.m.equivalent:
		r.status = "FAILED (equivalent row failed a score test)"
	case all:
		r.status = "killed"
	case best > 0:
		r.status = "flaky"
	default:
		r.status = "SURVIVED"
	}
}

func (r *result) ok() bool {
	return r.status == "killed" || r.status == "equivalent" || strings.HasPrefix(r.status, "flaky")
}

// linkers maps each package of the module to the test binaries that
// link it, as the package paths to give go test.
func linkers(root string) (map[string][]string, error) {
	cmd := exec.Command("go", "list", "-test", "-f", `{{.ImportPath}}|{{join .Deps ","}}`, "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	by := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, deps, _ := strings.Cut(line, "|")
		pkg, ok := strings.CutSuffix(path, ".test")
		if !ok {
			continue
		}
		for _, d := range strings.Split(deps, ",") {
			d, _, _ = strings.Cut(d, " [")
			if strings.HasPrefix(d, module+"/") {
				by[d] = append(by[d], "./"+strings.TrimPrefix(pkg, module+"/"))
			}
		}
	}
	return by, nil
}

// packages is what a row's full pass runs: the test binaries that link
// the mutated package, and internal/experiments.
func (m mutant) packages(by map[string][]string) []string {
	pkgs := append([]string{"./internal/experiments"}, by[module+"/"+filepath.ToSlash(filepath.Dir(m.file))]...)
	slices.Sort(pkgs)
	return slices.Compact(pkgs)
}

// run measures one row in a fresh copy of root, its full pass over pkgs.
func run(root string, m mutant, pkgs []string) *result {
	r := &result{m: m, kills: map[string]int{}, n: map[string]int{}}
	dir, err := os.MkdirTemp("", "mutant-")
	if err != nil {
		r.err = err
		return r
	}
	defer os.RemoveAll(dir)
	if err = os.CopyFS(dir, os.DirFS(root)); err == nil {
		if err = os.RemoveAll(filepath.Join(dir, ".git")); err == nil {
			err = m.apply(dir)
		}
	}
	if err != nil {
		r.err = err
		return r
	}
	full, err := goTest(dir, 1, pkgs...)
	switch {
	case err != nil:
		r.err = err
		return r
	case len(full.noBuild) > 0:
		r.err = fmt.Errorf("does not compile: %s", strings.Join(full.noBuild, ", "))
		return r
	}
	// A hang ends its package's run: run the package again without the
	// tests that hung, until none does, so that the row is whole.
	skip := map[string][]string{}
	for pending := full.hung; len(pending) > 0; {
		next := map[string]string{}
		for pkg, test := range pending {
			skip[pkg] = append(skip[pkg], test)
			o, err := goTest(dir, 1, "-skip", "^("+strings.Join(skip[pkg], "|")+")$", "./"+strings.TrimPrefix(pkg, module+"/"))
			if err != nil {
				r.err = err
				return r
			}
			maps.Copy(full.runs, o.runs)
			maps.Copy(full.failed, o.failed)
			maps.Copy(next, o.hung)
		}
		pending = next
	}
	for t := range full.failed {
		r.full = append(r.full, t)
	}
	slices.Sort(r.full)
	// The named tests again, to the row's number of runs, in go tests
	// of at most chunk runs a package, each inside the timeout. A run
	// that panics ends its go test: n counts the runs that finished.
	byPkg := map[string][]string{}
	for _, k := range m.killers {
		pkg, name, _ := strings.Cut(k, ".")
		byPkg[pkg] = append(byPkg[pkg], name)
		r.n[k], r.kills[k] = full.runs[k], full.failed[k]
		if full.failed[pkg+".(package)"] > 0 {
			r.n[k], r.kills[k] = 1, 1
		}
	}
	for pkg, names := range byPkg {
		for done := 1; done < max(m.runs, runs); done += chunk {
			o, err := goTest(dir, min(chunk, max(m.runs, runs)-done), "-run", "^("+strings.Join(names, "|")+")$", pkgDir(dir, pkg))
			if err != nil {
				r.err = err
				return r
			}
			for _, name := range names {
				r.n[pkg+"."+name] += o.runs[pkg+"."+name]
				r.kills[pkg+"."+name] += o.failed[pkg+"."+name]
			}
		}
	}
	return r
}

func main() {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "mutants: run from the module root")
		os.Exit(1)
	}
	by, err := linkers(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants: go list:", err)
		os.Exit(1)
	}
	start, failed := time.Now(), 0
	for i, m := range catalogue {
		t0 := time.Now()
		pkgs := m.packages(by)
		r := run(root, m, pkgs)
		r.verdict()
		if !r.ok() {
			failed++
		}
		var named []string
		for _, k := range m.killers {
			named = append(named, fmt.Sprintf("%s %d/%d", k, r.kills[k], r.n[k]))
		}
		fmt.Printf("[%2d/%d] %-24s %-12s %5.0fs  %3d pkgs  named: %s\n", i+1, len(catalogue), m.name, r.status, time.Since(t0).Seconds(), len(pkgs), strings.Join(named, ", "))
		if r.err != nil {
			fmt.Printf("        error: %v\n", r.err)
		} else {
			fmt.Printf("        full pass: %s\n", strings.Join(r.full, " "))
		}
	}
	fmt.Printf("\n%d rows, %d not as catalogued, %.0fs\n", len(catalogue), failed, time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}
