package baseline

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/forum"
	"repro/internal/lda"
	"repro/internal/match"
	"repro/internal/segment"
	"repro/internal/variant"
)

// testCorpus bundles a generated corpus with its prepared forms.
type testCorpus struct {
	posts []forum.Post
	docs  []*segment.Doc
	terms [][]string
}

func buildCorpus(t testing.TB, domain forum.Domain, n int, seed int64) *testCorpus {
	t.Helper()
	tc := &testCorpus{posts: forum.Generate(forum.Config{Domain: domain, NumPosts: n, Seed: seed})}
	texts := make([]string, n)
	for i, p := range tc.posts {
		texts[i] = p.Text
	}
	tc.docs = Prepare(texts)
	tc.terms = postTerms(tc.docs)
	return tc
}

func checkResults(t *testing.T, name string, res []match.Result, docID, k int) {
	t.Helper()
	if len(res) > k {
		t.Errorf("%s returned %d results for k=%d", name, len(res), k)
	}
	for i, r := range res {
		if r.DocID == docID {
			t.Errorf("%s returned the query document", name)
		}
		if i > 0 && r.Score > res[i-1].Score {
			t.Errorf("%s results not sorted", name)
		}
	}
}

func precision(res []match.Result, rel map[int]bool) float64 {
	if len(res) == 0 {
		return 0
	}
	hits := 0
	for _, r := range res {
		if rel[r.DocID] {
			hits++
		}
	}
	return float64(hits) / float64(len(res))
}

func TestFullTextMatch(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 120, 1)
	ft := newFullText(tc.terms)
	for _, q := range []int{0, 5, 50} {
		res := ft.Match(q, 5)
		if len(res) == 0 {
			t.Fatalf("FullText found nothing for doc %d", q)
		}
		checkResults(t, "FullText", res, q, 5)
	}
	if got := ft.Match(-1, 5); got != nil {
		t.Error("out-of-range doc should return nil")
	}
	if ft.Name() != "FullText" {
		t.Error("name mismatch")
	}
}

func TestFullTextPrefersSameTopic(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 200, 2)
	ft := newFullText(tc.terms)
	hits, total := 0, 0
	for q := 0; q < 30; q++ {
		for _, r := range ft.Match(q, 5) {
			total++
			if tc.posts[r.DocID].Topic == tc.posts[q].Topic {
				hits++
			}
		}
	}
	if total == 0 {
		t.Fatal("no results at all")
	}
	if frac := float64(hits) / float64(total); frac < 0.7 {
		t.Errorf("FullText same-topic fraction %.2f < 0.7 — shared vocabulary should dominate", frac)
	}
}

func TestLDAMatcher(t *testing.T) {
	tc := buildCorpus(t, forum.Travel, 100, 3)
	lm, err := newLDA(tc.terms, lda.Config{K: 6, Iterations: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := lm.Match(0, 5)
	if len(res) != 5 {
		t.Fatalf("LDA returned %d results", len(res))
	}
	checkResults(t, "LDA", res, 0, 5)
	if lm.Match(-1, 5) != nil || lm.Match(0, 0) != nil {
		t.Error("degenerate queries should return nil")
	}
	if lm.Name() != "LDA" {
		t.Errorf("LDA name = %q", lm.Name())
	}
	if _, err := newLDA(nil, lda.Config{}); err == nil {
		t.Error("newLDA(nil) should fail")
	}
}

// TestFullTextMatchExplainedReconciles holds the whole-post explanation
// to the reconciliation contract of match's: the explained list is the
// plain one, and each result's single pseudo-cluster 0 carries its whole
// score as a sum of term products. LDA, whose similarity is no such sum,
// does not explain.
func TestFullTextMatchExplainedReconciles(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 80, 99)
	ft := newFullText(tc.terms)
	var _ match.Explainer = ft
	if _, ok := any(&LDAMatcher{}).(match.Explainer); ok {
		t.Fatal("LDAMatcher must not satisfy match.Explainer")
	}
	if res, exps := ft.MatchExplained(-1, 5, nil); res != nil || exps != nil {
		t.Fatal("out-of-range doc id must return nils")
	}
	for doc := 0; doc < 20; doc++ {
		want := ft.Match(doc, 5)
		got, exps := ft.MatchExplained(doc, 5, nil)
		if len(got) != len(want) || len(exps) != len(want) {
			t.Fatalf("doc %d: %d results / %d explanations, want %d", doc, len(got), len(exps), len(want))
		}
		for i, exp := range exps {
			if got[i] != want[i] || exp.DocID != want[i].DocID || exp.Score != want[i].Score {
				t.Fatalf("doc %d result %d: explained %+v / %+v, plain %+v", doc, i, got[i], exp, want[i])
			}
			if len(exp.Clusters) != 1 || exp.Clusters[0].Cluster != 0 || exp.Clusters[0].Score != exp.Score {
				t.Fatalf("doc %d: explanation must be the single pseudo-cluster 0: %+v", doc, exp.Clusters)
			}
			var sum float64
			for _, term := range exp.Clusters[0].Terms {
				if term.Contribution != term.QueryTF*term.Weight*term.IDF {
					t.Fatalf("doc %d term %q: contribution %v is not %v·%v·%v",
						doc, term.Term, term.Contribution, term.QueryTF, term.Weight, term.IDF)
				}
				sum += term.Contribution
			}
			if d := math.Abs(sum - exp.Score); d > 1e-9 {
				t.Fatalf("doc %d → %d: term products sum to %v, score %v", doc, exp.DocID, sum, exp.Score)
			}
		}
	}
}

func TestMRBeatsFullTextOnConfusableCorpus(t *testing.T) {
	// The headline claim (Table 4): on same-category posts where vocabulary
	// is shared but needs differ, intention-based matching finds more truly
	// related posts than whole-post matching.
	tc := buildCorpus(t, forum.TechSupport, 300, 8)
	ft := newFullText(tc.terms)
	mr := match.NewMR("IntentIntent-MR", tc.docs, match.MRConfig{})

	var ftPrec, mrPrec float64
	queries := 40
	for q := 0; q < queries; q++ {
		rel := forum.RelevantSet(tc.posts, tc.posts[q])
		ftPrec += precision(ft.Match(q, 5), rel)
		mrPrec += precision(mr.Match(q, 5), rel)
	}
	ftPrec /= float64(queries)
	mrPrec /= float64(queries)
	t.Logf("mean precision: FullText=%.3f IntentIntent-MR=%.3f", ftPrec, mrPrec)
	if mrPrec <= ftPrec {
		t.Errorf("IntentIntent-MR precision %.3f should beat FullText %.3f", mrPrec, ftPrec)
	}
}

// TestMethodsFollowTheRecipes pins each column to its recipe under the
// caller's Seed; LDA.Seed falls back to Seed (Fig 11's LDA configuration
// names no seed of its own). The recipes are built under GOMAXPROCS 1
// and the columns under 8, so the build pools' size cannot show either.
func TestMethodsFollowTheRecipes(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 60, 5)
	cfg := Config{LDA: lda.Config{K: 3, Iterations: 10}, Seed: 9}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	recipes := map[string]match.Matcher{
		"FullText": newFullText(tc.terms),
		"Content-MR": match.NewMR("Content-MR", tc.docs, match.MRConfig{Strategy: variant.TextTiling{},
			Vectorize: contentVector, Group: match.GroupKMeans(8), Seed: 9}),
		"SentIntent-MR":   match.NewMR("SentIntent-MR", tc.docs, match.MRConfig{Strategy: variant.Sentences{}, Seed: 9}),
		"IntentIntent-MR": match.NewMR("IntentIntent-MR", tc.docs, match.MRConfig{Seed: 9}),
	}
	lm, err := newLDA(tc.terms, lda.Config{K: 3, Iterations: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	recipes["LDA"] = lm
	runtime.GOMAXPROCS(8)
	for _, m := range []Method{FullText, LDA, ContentMR, SentIntentMR, IntentIntentMR} {
		built, err := m.Build(tc.docs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if built.Name() != m.Name {
			t.Errorf("%s builds a matcher named %q", m.Name, built.Name())
		}
		for q := 0; q < 10; q++ {
			got, want := built.Match(q, 5), recipes[m.Name].Match(q, 5)
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d results, recipe %d", m.Name, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s query %d rank %d: %+v, recipe %+v", m.Name, q, i, got[i], want[i])
				}
			}
		}
	}
	if _, err := LDA.Build(nil, cfg); err == nil {
		t.Error("LDA over no documents should fail")
	}
}

func TestHashedTermVector(t *testing.T) {
	v := hashedTermVector([]string{"raid", "disk", "raid"})
	var norm float64
	for _, x := range v {
		norm += float64(x * x)
	}
	if norm < 0.99 || norm > 1.01 {
		t.Errorf("vector not L2-normalized: %v", norm)
	}
	if len(v) != hashedTermVectorDim {
		t.Errorf("wrong dimension %d", len(v))
	}
	empty := hashedTermVector(nil)
	for _, x := range empty {
		if x != 0 {
			t.Error("empty terms should give zero vector")
		}
	}
	// Determinism.
	w := hashedTermVector([]string{"raid", "disk", "raid"})
	for i := range v {
		if v[i] != w[i] {
			t.Fatal("hashing not deterministic")
		}
	}
}
