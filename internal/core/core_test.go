package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/forum"
)

func corpusTexts(t testing.TB, d forum.Domain, n int, seed int64) ([]string, []forum.Post) {
	t.Helper()
	posts := forum.Generate(forum.Config{Domain: d, NumPosts: n, Seed: seed})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	return texts, posts
}

func TestBuildStatsPopulated(t *testing.T) {
	texts, _ := corpusTexts(t, forum.Travel, 60, 3)
	p, err := Build(texts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.NumDocs != 60 {
		t.Errorf("NumDocs = %d", s.NumDocs)
	}
	if s.NumSegments < 60 {
		t.Errorf("NumSegments = %d, want >= NumDocs", s.NumSegments)
	}
	if s.NumClusters < 1 {
		t.Errorf("NumClusters = %d", s.NumClusters)
	}
	if s.Preprocess <= 0 || s.Segmentation <= 0 {
		t.Error("timings not recorded")
	}
	if p.NumClusters() != s.NumClusters {
		t.Error("NumClusters accessor mismatch")
	}
	if len(p.Centroids()) != s.NumClusters {
		t.Error("Centroids length mismatch")
	}
}

func TestSegmentCountsRefinement(t *testing.T) {
	texts, _ := corpusTexts(t, forum.TechSupport, 80, 5)
	p, err := Build(texts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before, after := p.SegmentCounts()
	if len(before) != 80 || len(after) != 80 {
		t.Fatal("segment count vectors wrong length")
	}
	for i := range before {
		if after[i] > before[i] {
			t.Errorf("doc %d gained segments in refinement", i)
		}
	}
}

func TestGranularityDistribution(t *testing.T) {
	dist := GranularityDistribution([]int{1, 1, 2, 3, 4, 5, 8})
	var sum float64
	for _, pct := range dist {
		sum += pct
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("distribution sums to %v", sum)
	}
	if dist["1"] < dist["2"] {
		t.Errorf("bucket 1 should be largest: %v", dist)
	}
	if GranularityDistribution(nil) != nil {
		t.Error("empty input should give nil")
	}
	if len(GranularityBuckets()) != 5 {
		t.Error("bucket labels wrong")
	}
}

func TestHelpers(t *testing.T) {
	res := []Result{{DocID: 9, Score: 3}, {DocID: 2, Score: 1}}
	ids := TopIDs(res)
	if ids[0] != 9 || ids[1] != 2 {
		t.Errorf("TopIDs = %v", ids)
	}
}

func TestBuildHTMLInput(t *testing.T) {
	texts := []string{
		"<p>I have an HP printer.</p><p>It does not print anymore. Do you know a fix?</p>",
		"<div>My printer shows an error. I replaced the toner. What should I try?</div>",
		"Plain post about a hotel pool. The pool was warm. Would you recommend it for kids?",
	}
	p, err := Build(texts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A segment holds at least one sentence.
	if before, _ := p.SegmentCounts(); before[0] < 2 {
		t.Errorf("HTML post cut into %d segments, want its sentences apart", before[0])
	}
	if !p.hasDoc(2) || p.hasDoc(-1) || p.hasDoc(3) {
		t.Error("hasDoc admits other ids than 0..2")
	}
}

func TestMethodString(t *testing.T) {
	if IntentIntentMR.String() != "IntentIntent-MR" {
		t.Error("Method.String mismatch")
	}
}

func TestHealthDomainOutOfSample(t *testing.T) {
	// The Health domain is not part of the paper's evaluation; it checks
	// that nothing in the pipeline is fit to the three canonical domains.
	texts, posts := corpusTexts(t, forum.Health, 200, 9)
	intent, err := Build(texts, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var pi float64
	const queries = 40
	for q := 0; q < queries; q++ {
		pi += eval.Precision(TopIDs(intent.Related(q, 5)), forum.RelevantSet(posts, posts[q]))
	}
	t.Logf("Health: IntentIntent=%.3f", pi/queries)
	if pi/queries < 0.2 {
		t.Errorf("IntentIntent collapsed on out-of-sample domain: %.3f", pi/queries)
	}
}

// corpusCase is one input of ReadCorpus and what it reads: the texts,
// or an error that begins with err.
type corpusCase struct {
	name, in string
	want     []string
	err      string
}

// corpusCases are TestReadCorpus's rows and FuzzReadCorpus's seeds.
func corpusCases() []corpusCase {
	line := func(size int) (string, string) { // a record of size bytes, and its text
		text := strings.Repeat("a", size-len(`{"text": ""}`))
		return `{"text": "` + text + `"}`, text
	}
	atBound, text := line(maxLineBytes)
	pastBound, _ := line(maxLineBytes + 1)
	return []corpusCase{
		{name: "plain", in: "{\"text\": \"a\"}\n{\"id\": 1, \"text\": \"b\"}\n", want: []string{"a", "b"}},
		{name: "no final newline", in: `{"text": "a"}`, want: []string{"a"}},
		{name: "blank lines", in: "\n{\"text\": \"a\"}\n\n\n{\"text\": \"b\"}\n\n", want: []string{"a", "b"}},
		{name: "whitespace-only lines", in: " \t\n{\"text\": \"a\"}\n   \n", want: []string{"a"}},
		{name: "CRLF", in: "{\"text\": \"a\"}\r\n\r\n{\"text\": \"b\"}\r\n", want: []string{"a", "b"}},
		{name: "bad JSON", in: "{\"text\": \"a\"}\n\n{\"text\": \n", err: "corpus line 3: "},
		{name: "not an object", in: "{\"text\": \"a\"}\n[1]\n", err: "corpus line 2: "},
		{name: "a line at the bound", in: "{\"text\": \"a\"}\n" + atBound + "\n", want: []string{"a", text}},
		{name: "a line past the bound", in: "{\"text\": \"a\"}\n\n" + pastBound + "\n{\"text\": \"b\"}\n", err: "corpus line 3: longer than 1048576 bytes"},
		{name: "empty", in: "", err: "empty corpus"},
		{name: "blank only", in: "\n \n\r\n", err: "empty corpus"},
		{name: "no text field", in: "{\"text\": \"a\"}\n{\"id\": 1}\n", err: "corpus line 2: no text"},
		{name: "blank text", in: "{\"text\": \"a\"}\n{\"text\": \" \\t\"}\n", err: "corpus line 2: no text"},
		{name: "null", in: "null\n", err: "corpus line 1: no text"},
	}
}

// TestReadCorpus: blank, whitespace-only and CRLF lines read as the
// posts around them; a bad line, a blank text and an over-long line are
// refused by line number; a corpus without a post is refused.
func TestReadCorpus(t *testing.T) {
	for _, c := range corpusCases() {
		t.Run(c.name, func(t *testing.T) {
			got, err := ReadCorpus(strings.NewReader(c.in))
			if c.err != "" {
				if err == nil || !strings.HasPrefix(err.Error(), c.err) {
					t.Fatalf("error %v, want one that begins %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("read %.40q, want %.40q", got, c.want)
			}
		})
	}
}
