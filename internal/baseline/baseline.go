// Package baseline builds the comparison methods of the paper's Sec 9.2
// over prepared documents: FullText (whole-post ranking with the
// MySQL-style Eq 7 weighting), LDA (topic-distribution similarity),
// Content-MR (TextTiling segments, hashed TF vectors, k-means at 8) and
// SentIntent-MR (sentence units, CM clusters), the last two as
// match.MRConfig stages from internal/variant. They are the comparison
// columns of Table 4 and Figs 10–11, beside the paper's own
// IntentIntent-MR.
//
// No server selects a baseline: internal/core builds the paper's method
// only. Only internal/experiments, cmd/intentmatch and this package's
// Example tests import it, which keeps it and the internal/lda sampler off
// cmd/serve's dependency graph (CI checks it).
package baseline

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/index"
	"repro/internal/lda"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/variant"
)

// Config is what every constructor reads. The segment-based methods
// build with the paper's multi-ranking knobs, seeded by Seed, as
// core.Build does; LDA.Seed falls back to Seed when 0.
type Config struct {
	// LDA carries the topic-model hyperparameters of the LDA method.
	LDA  lda.Config
	Seed int64
}

// Method is one comparison column: its Table 4 label and its
// constructor over prepared documents.
type Method struct {
	Name  string
	Build func(docs []*segment.Doc, cfg Config) (match.Matcher, error)
}

// The columns of Table 4. IntentIntentMR is the paper's method as a bare
// matcher — what core.Build builds, without the pipeline around it — so
// that a table can build every column the same way.
var (
	FullText = Method{"FullText", func(docs []*segment.Doc, _ Config) (match.Matcher, error) {
		return newFullText(postTerms(docs)), nil
	}}
	LDA = Method{"LDA", func(docs []*segment.Doc, cfg Config) (match.Matcher, error) {
		ldaCfg := cfg.LDA
		if ldaCfg.Seed == 0 {
			ldaCfg.Seed = cfg.Seed
		}
		return newLDA(postTerms(docs), ldaCfg)
	}}
	ContentMR = Method{"Content-MR", func(docs []*segment.Doc, cfg Config) (match.Matcher, error) {
		mrCfg := match.MRConfig{Strategy: variant.TextTiling{}, Vectorize: contentVector, Group: match.GroupKMeans(8), Seed: cfg.Seed}
		return match.NewMR("Content-MR", docs, mrCfg), nil
	}}
	SentIntentMR = Method{"SentIntent-MR", func(docs []*segment.Doc, cfg Config) (match.Matcher, error) {
		return match.NewMR("SentIntent-MR", docs, match.MRConfig{Strategy: variant.Sentences{}, Seed: cfg.Seed}), nil
	}}
	IntentIntentMR = Method{"IntentIntent-MR", func(docs []*segment.Doc, cfg Config) (match.Matcher, error) {
		return match.NewMR("IntentIntent-MR", docs, match.MRConfig{Seed: cfg.Seed}), nil
	}}
)

// hashedTermVectorDim is the dimensionality of the feature-hashed TF
// vectors Content-MR clusters (k-means needs dense fixed-width points; 64
// dimensions keep collisions rare at forum-segment vocabulary sizes).
const hashedTermVectorDim = 64

// contentVector is Content-MR's Vectorize stage: the hashed TF vector of
// the segment's terms.
func contentVector(d *segment.Doc, lo, hi int) []float64 { return hashedTermVector(d.Terms(lo, hi)) }

// hashedTermVector folds a segment's terms into a dense L2-normalized TF
// vector by feature hashing.
func hashedTermVector(terms []string) []float64 {
	v := make([]float64, hashedTermVectorDim)
	for _, t := range terms {
		h := fnv.New32a()
		h.Write([]byte(t))
		v[h.Sum32()%hashedTermVectorDim]++
	}
	var norm float64
	for _, x := range v {
		norm += float64(x * x)
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
	}
	return v
}

// Prepare runs the text front end (HTML cleaning, sentence split, CM
// annotation) over every post on GOMAXPROCS goroutines, as core.Build
// does before it segments.
func Prepare(texts []string) []*segment.Doc {
	docs := make([]*segment.Doc, len(texts))
	par.Do(len(texts), func(i int) { docs[i] = segment.NewDoc(texts[i]) })
	return docs
}

// postTerms returns every document's whole-post index terms: the stemmed
// content terms of all its sentences.
func postTerms(docs []*segment.Doc) [][]string {
	terms := make([][]string, len(docs))
	for i, d := range docs {
		terms[i] = d.Terms(0, d.Len())
	}
	return terms
}

// FullTextMatcher is the whole-post baseline: one inverted index over
// entire posts with the Eq 7 weighting — the paper's MySQL 5.5.3
// full-text configuration.
type FullTextMatcher struct {
	ix    *index.Index
	terms [][]string
}

// newFullText indexes the collection; docs[i] holds the content terms of
// document i.
func newFullText(docs [][]string) *FullTextMatcher {
	ft := &FullTextMatcher{ix: index.New(), terms: docs}
	for _, terms := range docs {
		ft.ix.Add(terms)
	}
	return ft
}

// Name implements match.Matcher.
func (ft *FullTextMatcher) Name() string { return "FullText" }

// Match implements match.Matcher. Unit ids coincide with document ids.
func (ft *FullTextMatcher) Match(docID, k int) []match.Result {
	out, _ := ft.match(docID, k, false)
	return out
}

// MatchExplained implements match.Explainer: the score decomposes over a
// single pseudo-cluster 0 (the one whole-collection index), with the
// full Eq 7–9 term breakdown. The whole-post query has no stages to
// record, so the trace is unused.
func (ft *FullTextMatcher) MatchExplained(docID, k int, _ *obs.Trace) ([]match.Result, []match.Explanation) {
	return ft.match(docID, k, true)
}

func (ft *FullTextMatcher) match(docID, k int, explain bool) ([]match.Result, []match.Explanation) {
	if docID < 0 || docID >= len(ft.terms) {
		return nil, nil
	}
	q := index.TermFrequencies(ft.terms[docID])
	res := ft.ix.Query(q, k, func(u int) bool { return u == docID })
	out := make([]match.Result, len(res))
	var exps []match.Explanation
	if explain {
		exps = make([]match.Explanation, len(res))
	}
	for i, r := range res {
		out[i] = match.Result{DocID: r.Unit, Score: r.Score}
		if explain {
			exps[i] = match.Explanation{DocID: r.Unit, Score: r.Score, Clusters: []match.ClusterContribution{
				{Cluster: 0, Score: r.Score, Terms: termContributions(ft.ix.Explain(q, r.Unit))},
			}}
		}
	}
	return out, exps
}

func termContributions(terms []index.TermScore) []match.TermContribution {
	out := make([]match.TermContribution, len(terms))
	for i, ts := range terms {
		out[i] = match.TermContribution{
			Term: ts.Term, QueryTF: ts.QueryTF, Weight: ts.Weight, IDF: ts.IDF, Contribution: ts.Product,
		}
	}
	return out
}

// LDAMatcher ranks posts by the similarity of their LDA topic
// distributions. Like the paper's LDA baseline it has no index: every
// query scans the collection, which is what makes it the slowest method
// in Fig 11(c). Its similarity is not an Eq 7–9 sum, so it does not
// explain.
type LDAMatcher struct {
	model *lda.Model
}

// newLDA trains a topic model over the collection's term lists.
func newLDA(docs [][]string, cfg lda.Config) (*LDAMatcher, error) {
	m, err := lda.Train(docs, cfg)
	if err != nil {
		return nil, fmt.Errorf("baseline: training LDA: %w", err)
	}
	return &LDAMatcher{model: m}, nil
}

// Name implements match.Matcher.
func (lm *LDAMatcher) Name() string { return "LDA" }

// Match implements match.Matcher.
func (lm *LDAMatcher) Match(docID, k int) []match.Result {
	n := lm.model.NumDocs()
	if docID < 0 || docID >= n || k <= 0 {
		return nil
	}
	q := lm.model.DocTopics(docID)
	top := make([]match.Result, 0, min(k, n-1))
	for d := 0; d < n; d++ {
		if d != docID {
			top = match.InsertTop(top, k, match.Result{DocID: d, Score: lda.Similarity(q, lm.model.DocTopics(d))})
		}
	}
	return top
}
