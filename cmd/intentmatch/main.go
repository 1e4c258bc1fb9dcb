// Command intentmatch builds the intention-based retrieval pipeline over a
// JSON-lines corpus (as produced by gencorpus, or any file with one
// {"id":..,"text":..} object per line) and prints the top-k related posts
// for one or more reference posts. -method intent (the default) builds
// the paper's method through internal/core, the only one that can be
// saved; the comparison methods build through internal/baseline.
//
// Usage:
//
//	gencorpus -domain tech -n 500 | intentmatch -query 0 -k 5
//	intentmatch -corpus corpus.jsonl -query 0,7,42 -k 5 -method fulltext
//	intentmatch -corpus corpus.jsonl -query 0 -explain      # Eq 7–9 breakdown
//	intentmatch -corpus corpus.jsonl -save built.idx        # offline build
//	intentmatch -corpus corpus.jsonl -save built.idx -save-shards 4   # the same, partitioned
//	intentmatch -load built.idx -query 0,7 -k 5             # online serving
//
// Every flag is a row of options.table, which also names the modes
// that read it; a flag set where nothing reads it is refused by name.
// README.md's cmd/intentmatch flag table ("Command-line tools") is
// rendered from the rows.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/knob"
	"repro/internal/lda"
	"repro/internal/match"
	"repro/internal/par"
)

// baselines are the comparison methods -method names besides intent.
var baselines = map[string]baseline.Method{
	"fulltext": baseline.FullText, "lda": baseline.LDA, "content": baseline.ContentMR, "sent": baseline.SentIntentMR,
}

// options are the flags; table declares them.
type options struct {
	corpus, query, method, save, load string
	k, saveShards                     int
	seed                              int64
	explain                           bool
}

// The modes, one bit each: -load, then -method and -save choose one.
// FullText builds no clustering, so it reads no seed.
const (
	intentQuery knob.Modes = 1 << iota
	intentSave
	fulltextBuild
	seededBuild
	loaded

	baselineBuilds = fulltextBuild | seededBuild
	builds         = intentQuery | intentSave | baselineBuilds
	queries        = intentQuery | baselineBuilds | loaded
)

var modeNames = []string{"intent build", "-save", "-method fulltext", "-method lda, content or sent", "-load"}

// table is every flag, each declared once; README's cmd/intentmatch
// knob table is rendered from it.
func (o *options) table() *knob.Table {
	return &knob.Table{Modes: modeNames, Rows: []knob.Row{
		{Name: "corpus", Value: &o.corpus, Default: "-", Modes: builds,
			Help: "JSON-lines corpus file (- reads stdin)"},
		{Name: "query", Value: &o.query, Default: "0", Modes: queries,
			Help: "comma-separated reference post ids"},
		{Name: "k", Value: &o.k, Default: 5, Modes: queries, Range: knob.Between(1, 100),
			Help: "number of related posts to return"},
		{Name: "method", Value: &o.method, Default: "intent", Modes: builds, Range: knob.OneOf("intent", "fulltext", "lda", "content", "sent"),
			Help: "matching method: intent is the paper's, the others build an internal/baseline matcher"},
		{Name: "seed", Value: &o.seed, Default: int64(1), Modes: builds &^ fulltextBuild,
			Help: "random seed"},
		{Name: "save", Value: &o.save, Default: "", Modes: intentSave,
			Help: "write the built pipeline to this file and exit"},
		{Name: "save-shards", Value: &o.saveShards, Default: 0, Modes: intentSave, Range: knob.AtLeast(0),
			Help: "partition the saved build into this many shards; the snapshot is still one file (servable whole with `serve -load`, or piecewise with `serve -shard-role shard -own N`)"},
		{Name: "load", Value: &o.load, Default: "", Modes: loaded,
			Help: "load a previously saved pipeline instead of building"},
		{Name: "explain", Value: &o.explain, Default: false, Modes: queries,
			Help: "print each result's Eq 7–9 score decomposition (per-cluster contributions and top terms)"},
	}}
}

// mode is the mode the flags choose.
func (o *options) mode() knob.Modes {
	switch {
	case o.load != "":
		return loaded
	case o.method == "fulltext":
		return fulltextBuild
	case o.method != "intent":
		return seededBuild
	case o.save != "":
		return intentSave
	}
	return intentQuery
}

// parseFlags parses args and refuses, by name, a flag set outside its
// range or in a mode that does not read it.
func parseFlags(args []string) (*options, error) {
	o := new(options)
	return o, o.table().Parse("intentmatch", args, o.mode)
}

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "intentmatch:", err)
		os.Exit(1)
	}
}

// run is the command over args, reading a "-" corpus from stdin and
// printing to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.explain && o.method == "lda" {
		return fmt.Errorf("-explain does not apply to -method lda: its similarity is not an Eq 7–9 sum")
	}
	if o.mode() == loaded {
		p, err := core.Load(o.load)
		if err != nil {
			return err
		}
		st := p.Stats()
		fmt.Fprintf(stdout, "loaded %s: %d posts, %d clusters\n", p.Method(), st.NumDocs, st.NumClusters)
		// A saved pipeline keeps segment terms, not post texts, so
		// results list ids and scores only.
		return answer(stdout, p.Related, explainPipeline(p), st.NumDocs, o, nil)
	}
	texts, err := readCorpus(o.corpus, stdin)
	if err != nil {
		return err
	}
	if o.mode()&baselineBuilds != 0 {
		built, err := baselines[o.method].Build(baseline.Prepare(texts), baseline.Config{LDA: lda.Config{K: 8, Iterations: 60}, Seed: o.seed})
		if err != nil {
			return err
		}
		var st match.BuildStats // zero for the whole-post methods
		if mr, ok := built.(*match.MR); ok {
			st = mr.Stats()
		}
		fmt.Fprintf(stdout, "built %s over %d posts (%d segments, %d clusters)\n", built.Name(), len(texts), st.NumSegments, st.NumClusters)
		explained, _ := built.(match.Explainer) // run refused the one method that cannot explain
		return answer(stdout, built.Match, func(docID, k int) ([]match.Result, []match.Explanation, error) {
			res, exps := explained.MatchExplained(docID, k, nil)
			return res, exps, nil
		}, len(texts), o, texts)
	}

	p, err := core.Build(texts, core.Config{Seed: o.seed, Shards: o.saveShards})
	if err != nil {
		return err
	}
	st := p.Stats()
	fmt.Fprintf(stdout, "built %s over %d posts (%d segments, %d clusters)\n",
		p.Method(), st.NumDocs, st.NumSegments, st.NumClusters)
	if o.mode() == intentSave {
		if err := p.Save(o.save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved pipeline to %s\n", o.save)
		return nil
	}
	return answer(stdout, p.Related, explainPipeline(p), st.NumDocs, o, texts)
}

// readCorpus reads the post texts of the JSON-lines corpus at path, or
// of stdin when path is "-".
func readCorpus(path string, stdin io.Reader) ([]string, error) {
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		stdin = f
	}
	return core.ReadCorpus(stdin)
}

// explainFunc is an explained query, the form explainQueries prints.
type explainFunc func(docID, k int) ([]match.Result, []match.Explanation, error)

// explainPipeline adapts a pipeline's explained Query to explainFunc.
func explainPipeline(p *core.Pipeline) explainFunc {
	return func(docID, k int) ([]match.Result, []match.Explanation, error) {
		ans, err := p.Query(context.Background(), docID, k, true)
		return ans.Results, ans.Explanations, err
	}
}

// answer answers o's queries, explained when o.explain is set.
func answer(w io.Writer, related func(docID, k int) []match.Result, explained explainFunc, numDocs int, o *options, texts []string) error {
	ids, err := parseQueryIDs(o.query, numDocs)
	if err != nil {
		return err
	}
	if o.explain {
		return explainQueries(w, explained, ids, o.k, texts)
	}
	answerQueries(w, related, ids, o.k, texts)
	return nil
}

// answerQueries answers the reference ids concurrently — the online
// phase is safe for parallel queries — and prints the result lists in
// input order. texts may be nil (loaded pipelines keep segment terms,
// not post texts); then only ids and scores print.
func answerQueries(w io.Writer, related func(docID, k int) []match.Result, ids []int, k int, texts []string) {
	results := make([][]match.Result, len(ids))
	par.Do(len(ids), func(i int) { results[i] = related(ids[i], k) })
	for i, q := range ids {
		printQuery(w, q, texts)
		for rank, r := range results[i] {
			printResult(w, rank, r, texts)
		}
	}
}

// explainQueries is answerQueries with the Eq 7–9 score decomposition:
// each result prints its per-intention-cluster contributions and, for
// every cluster, the largest term-level tf·weight·idf products. The
// cluster contributions sum to the served score (the -explain
// acceptance property the serve layer also exposes).
func explainQueries(w io.Writer, explained explainFunc, ids []int, k int, texts []string) error {
	const topTerms = 8
	for _, q := range ids {
		printQuery(w, q, texts)
		results, exps, err := explained(q, k)
		if err != nil {
			return err
		}
		for rank, r := range results {
			printResult(w, rank, r, texts)
			for _, c := range exps[rank].Clusters {
				terms := append([]match.TermContribution(nil), c.Terms...)
				sort.Slice(terms, func(a, b int) bool {
					return math.Abs(terms[a].Contribution) > math.Abs(terms[b].Contribution)
				})
				shown := terms
				if len(shown) > topTerms {
					shown = shown[:topTerms]
				}
				parts := make([]string, len(shown))
				for i, tc := range shown {
					parts[i] = fmt.Sprintf("%s %.4f", tc.Term, tc.Contribution)
				}
				line := strings.Join(parts, ", ")
				if n := len(terms) - len(shown); n > 0 {
					line += fmt.Sprintf(", … (+%d terms)", n)
				}
				fmt.Fprintf(w, "     cluster %-3d %.4f  [%s]\n", c.Cluster, c.Score, line)
			}
		}
	}
	return nil
}

// printQuery prints a query's header line.
func printQuery(w io.Writer, q int, texts []string) {
	if texts != nil {
		fmt.Fprintf(w, "\nquery %d: %s\n", q, truncate(texts[q], 90))
	} else {
		fmt.Fprintf(w, "query %d:\n", q)
	}
}

// printResult prints one ranked result.
func printResult(w io.Writer, rank int, r match.Result, texts []string) {
	if texts != nil {
		fmt.Fprintf(w, "  %d. post %-5d score %.4f  %s\n", rank+1, r.DocID, r.Score, truncate(texts[r.DocID], 70))
	} else {
		fmt.Fprintf(w, "  %d. post %-5d score %.4f\n", rank+1, r.DocID, r.Score)
	}
}

// parseQueryIDs parses the -query flag's comma-separated reference ids,
// validating each against the collection size.
func parseQueryIDs(query string, numDocs int) ([]int, error) {
	parts := strings.Split(query, ",")
	ids := make([]int, len(parts))
	for i, part := range parts {
		q, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || q < 0 || q >= numDocs {
			return nil, fmt.Errorf("bad query id %q (corpus has %d posts)", part, numDocs)
		}
		ids[i] = q
	}
	return ids, nil
}

func truncate(s string, n int) string {
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
