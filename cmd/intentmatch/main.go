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
package main

import (
	"bufio"
	"context"
	"encoding/json"
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
	"repro/internal/lda"
	"repro/internal/match"
	"repro/internal/par"
)

type record struct {
	ID   int    `json:"id"`
	Text string `json:"text"`
}

// baselines are the comparison methods -method names besides intent.
var baselines = map[string]baseline.Method{
	"fulltext": baseline.FullText, "lda": baseline.LDA, "content": baseline.ContentMR, "sent": baseline.SentIntentMR,
}

// explainFunc is an explained query, the form explainQueries prints.
type explainFunc func(docID, k int) ([]match.Result, []match.Explanation)

// explainPipeline adapts a pipeline's explained Query to explainFunc.
func explainPipeline(p *core.Pipeline) explainFunc {
	return func(docID, k int) ([]match.Result, []match.Explanation) {
		ans, err := p.Query(context.Background(), docID, k, true)
		if err != nil {
			fatal(err)
		}
		return ans.Results, ans.Explanations
	}
}

func main() {
	corpus := flag.String("corpus", "-", "JSON-lines corpus file (default stdin)")
	query := flag.String("query", "0", "comma-separated reference post ids")
	k := flag.Int("k", 5, "number of related posts to return")
	method := flag.String("method", "intent", "matching method: intent, fulltext, lda, content, sent")
	seed := flag.Int64("seed", 1, "random seed")
	save := flag.String("save", "", "write the built pipeline to this file and exit")
	saveShards := flag.Int("save-shards", 0,
		"with -save: partition the build into this many shards; the snapshot is still one file (servable whole with `serve -load`, or piecewise with `serve -shard-role shard -own N`)")
	load := flag.String("load", "", "load a previously saved pipeline instead of building")
	explain := flag.Bool("explain", false,
		"print each result's Eq 7–9 score decomposition (per-cluster contributions and top terms)")
	flag.Parse()

	if *load != "" {
		servePipeline(*load, *query, *k, *explain)
		return
	}
	bm, isBaseline := baselines[*method]
	switch {
	case !isBaseline && *method != "intent":
		fatal(fmt.Errorf("unknown method %q", *method))
	case isBaseline && (*save != "" || *saveShards > 0):
		fatal(fmt.Errorf("-save and -save-shards persist -method intent only, not %q", *method))
	case *explain && *method == "lda":
		fatal(fmt.Errorf("-explain does not apply to -method lda: its similarity is not an Eq 7–9 sum"))
	}

	var in io.Reader = os.Stdin
	if *corpus != "-" {
		f, err := os.Open(*corpus)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	var texts []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			fatal(fmt.Errorf("parsing corpus line %d: %w", len(texts)+1, err))
		}
		texts = append(texts, rec.Text)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(texts) == 0 {
		fatal(fmt.Errorf("empty corpus"))
	}

	if isBaseline {
		runBaseline(bm, texts, *seed, *query, *k, *explain)
		return
	}

	p, err := core.Build(texts, core.Config{Seed: *seed, Shards: *saveShards})
	if err != nil {
		fatal(err)
	}
	st := p.Stats()
	fmt.Printf("built %s over %d posts (%d segments, %d clusters)\n",
		p.Method(), st.NumDocs, st.NumSegments, st.NumClusters)

	if *save != "" {
		if err := p.Save(*save); err != nil {
			fatal(err)
		}
		fmt.Printf("saved pipeline to %s\n", *save)
		return
	}

	if *explain {
		explainQueries(explainPipeline(p), st.NumDocs, *query, *k, texts)
		return
	}
	answerQueries(p.Related, st.NumDocs, *query, *k, texts)
}

// runBaseline builds a comparison method over the corpus and answers the
// queries with it, as main does with the pipeline.
func runBaseline(m baseline.Method, texts []string, seed int64, query string, k int, explain bool) {
	built, err := m.Build(baseline.Prepare(texts), baseline.Config{LDA: lda.Config{K: 8, Iterations: 60}, Seed: seed})
	if err != nil {
		fatal(err)
	}
	var st match.BuildStats // zero for the whole-post methods
	if mr, ok := built.(*match.MR); ok {
		st = mr.Stats()
	}
	fmt.Printf("built %s over %d posts (%d segments, %d clusters)\n", built.Name(), len(texts), st.NumSegments, st.NumClusters)
	if explain { // main refused the one method that cannot explain
		explainQueries(func(docID, k int) ([]match.Result, []match.Explanation) {
			return built.(match.Explainer).MatchExplained(docID, k, nil)
		}, len(texts), query, k, texts)
		return
	}
	answerQueries(built.Match, len(texts), query, k, texts)
}

// answerQueries serves the comma-separated reference ids concurrently —
// the pipeline's online phase is safe for parallel queries — and prints
// the result lists in input order. texts may be nil (loaded pipelines
// keep segment terms, not post texts); then only ids and scores print.
func answerQueries(related func(docID, k int) []match.Result, numDocs int, query string, k int, texts []string) {
	ids := parseQueryIDs(query, numDocs)
	results := make([][]match.Result, len(ids))
	par.Do(len(ids), func(i int) { results[i] = related(ids[i], k) })
	for i, q := range ids {
		if texts != nil {
			fmt.Printf("\nquery %d: %s\n", q, truncate(texts[q], 90))
		} else {
			fmt.Printf("query %d:\n", q)
		}
		for rank, r := range results[i] {
			if texts != nil {
				fmt.Printf("  %d. post %-5d score %.4f  %s\n", rank+1, r.DocID, r.Score, truncate(texts[r.DocID], 70))
			} else {
				fmt.Printf("  %d. post %-5d score %.4f\n", rank+1, r.DocID, r.Score)
			}
		}
	}
}

// explainQueries is answerQueries with the Eq 7–9 score decomposition:
// each result prints its per-intention-cluster contributions and, for
// every cluster, the largest term-level tf·weight·idf products. The
// cluster contributions sum to the served score (the -explain
// acceptance property the serve layer also exposes).
func explainQueries(explained explainFunc, numDocs int, query string, k int, texts []string) {
	const topTerms = 8
	ids := parseQueryIDs(query, numDocs)
	for _, q := range ids {
		if texts != nil {
			fmt.Printf("\nquery %d: %s\n", q, truncate(texts[q], 90))
		} else {
			fmt.Printf("query %d:\n", q)
		}
		results, exps := explained(q, k)
		for rank, r := range results {
			if texts != nil {
				fmt.Printf("  %d. post %-5d score %.4f  %s\n", rank+1, r.DocID, r.Score, truncate(texts[r.DocID], 70))
			} else {
				fmt.Printf("  %d. post %-5d score %.4f\n", rank+1, r.DocID, r.Score)
			}
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
				fmt.Printf("     cluster %-3d %.4f  [%s]\n", c.Cluster, c.Score, line)
			}
		}
	}
}

// parseQueryIDs parses the -query flag's comma-separated reference ids,
// validating each against the collection size.
func parseQueryIDs(query string, numDocs int) []int {
	parts := strings.Split(query, ",")
	ids := make([]int, len(parts))
	for i, part := range parts {
		q, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || q < 0 || q >= numDocs {
			fatal(fmt.Errorf("bad query id %q (corpus has %d posts)", part, numDocs))
		}
		ids[i] = q
	}
	return ids
}

// servePipeline answers queries from a previously saved pipeline. Saved
// pipelines keep segment terms, not post texts, so results list ids and
// scores only.
func servePipeline(path, query string, k int, explain bool) {
	p, err := core.Load(path)
	if err != nil {
		fatal(err)
	}
	st := p.Stats()
	fmt.Printf("loaded %s: %d posts, %d clusters\n", p.Method(), st.NumDocs, st.NumClusters)
	if explain {
		explainQueries(explainPipeline(p), st.NumDocs, query, k, nil)
		return
	}
	answerQueries(p.Related, st.NumDocs, query, k, nil)
}

func truncate(s string, n int) string {
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "intentmatch:", err)
	os.Exit(1)
}
