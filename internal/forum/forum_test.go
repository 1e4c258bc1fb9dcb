package forum

import (
	"strings"
	"testing"

	"repro/internal/textproc"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Domain: TechSupport, NumPosts: 20, Seed: 1})
	b := Generate(Config{Domain: TechSupport, NumPosts: 20, Seed: 1})
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatalf("post %d differs across identical runs", i)
		}
	}
	c := Generate(Config{Domain: TechSupport, NumPosts: 20, Seed: 2})
	same := 0
	for i := range a {
		if a[i].Text == c[i].Text {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGeneratePostStreamingMatchesBatch(t *testing.T) {
	batch := Generate(Config{Domain: Travel, NumPosts: 5, Seed: 9})
	for i := range batch {
		single := GeneratePost(Travel, i, 9)
		if single.Text != batch[i].Text {
			t.Fatalf("GeneratePost(%d) differs from Generate batch", i)
		}
	}
}

func TestAllDomainsGenerateValidPosts(t *testing.T) {
	for _, d := range []Domain{TechSupport, Travel, Programming, Health} {
		posts := Generate(Config{Domain: d, NumPosts: 60, Seed: 3})
		for _, p := range posts {
			if p.Text == "" {
				t.Fatalf("%v post %d empty", d, p.ID)
			}
			if len(p.Segments) == 0 {
				t.Fatalf("%v post %d has no segments", d, p.ID)
			}
			if strings.ContainsAny(p.Text, "{}") {
				t.Fatalf("%v post %d has unresolved slots: %q", d, p.ID, p.Text)
			}
			// Segment offsets must tile the text in order.
			for i, s := range p.Segments {
				if s.Start < 0 || s.End > len(p.Text) || s.Start >= s.End {
					t.Fatalf("%v post %d segment %d bad offsets [%d,%d)", d, p.ID, i, s.Start, s.End)
				}
				if i > 0 && s.Start <= p.Segments[i-1].End-1 {
					t.Fatalf("%v post %d segments overlap", d, p.ID)
				}
				if s.NumSents < 1 {
					t.Fatalf("%v post %d segment %d empty", d, p.ID, i)
				}
			}
			if p.Topic < 0 || p.Topic >= numTopics(d) {
				t.Fatalf("topic out of range")
			}
			if p.Variant < 0 || p.Variant >= numVariants(d, p.Topic) {
				t.Fatalf("variant out of range")
			}
		}
	}
}

func TestSegmentsMatchSentenceSplitter(t *testing.T) {
	// The gold FirstSent/NumSents bookkeeping must agree with what the
	// sentence splitter actually produces on the generated text.
	for _, d := range []Domain{TechSupport, Travel, Programming, Health} {
		posts := Generate(Config{Domain: d, NumPosts: 40, Seed: 11})
		for _, p := range posts {
			sents := textproc.SplitSentences(p.Text)
			if len(sents) != p.numSentences() {
				t.Fatalf("%v post %d: splitter found %d sentences, gold says %d\ntext: %q",
					d, p.ID, len(sents), p.numSentences(), p.Text)
			}
			for _, b := range p.GoldSentenceBorders() {
				if b <= 0 || b >= len(sents) {
					t.Fatalf("%v post %d: gold sentence border %d out of range", d, p.ID, b)
				}
			}
			// Gold char borders must land exactly on sentence starts.
			for i, cb := range p.goldBorders() {
				sb := p.GoldSentenceBorders()[i]
				if sents[sb].Start != cb {
					t.Fatalf("%v post %d: char border %d != sentence %d start %d",
						d, p.ID, cb, sb, sents[sb].Start)
				}
			}
		}
	}
}

func TestIntentionDiversityAcrossCorpus(t *testing.T) {
	posts := Generate(Config{Domain: TechSupport, NumPosts: 200, Seed: 5})
	labels := map[string]int{}
	multi := 0
	for _, p := range posts {
		if len(p.Segments) > 1 {
			multi++
		}
		for _, s := range p.Segments {
			labels[s.Intention]++
		}
	}
	want := Intentions(TechSupport)
	for _, l := range want {
		if labels[l] == 0 {
			t.Errorf("intention %q never generated", l)
		}
	}
	if frac := float64(multi) / float64(len(posts)); frac < 0.8 {
		t.Errorf("only %.2f of posts are multi-segment", frac)
	}
}

func TestScenarioDistribution(t *testing.T) {
	posts := Generate(Config{Domain: Travel, NumPosts: 400, Seed: 6})
	counts := map[Scenario]int{}
	for _, p := range posts {
		counts[p.scenario()]++
	}
	// Every scenario should be populated with several posts so top-5
	// retrieval has relevant documents to find.
	if len(counts) < 10 {
		t.Fatalf("only %d scenarios populated", len(counts))
	}
	for s, c := range counts {
		if c < 3 {
			t.Errorf("scenario %+v has only %d posts", s, c)
		}
	}
}

func TestRelatedSemantics(t *testing.T) {
	a := Post{ID: 1, Domain: TechSupport, Topic: 2, Variant: 1}
	b := Post{ID: 2, Domain: TechSupport, Topic: 2, Variant: 1}
	c := Post{ID: 3, Domain: TechSupport, Topic: 2, Variant: 0} // same topic, different need
	d := Post{ID: 4, Domain: Travel, Topic: 2, Variant: 1}
	if !Related(a, b) {
		t.Error("same scenario should be related")
	}
	if Related(a, c) {
		t.Error("same topic but different variant must NOT be related (Doc A vs Doc B)")
	}
	if Related(a, d) {
		t.Error("different domains are unrelated")
	}
	if Related(a, a) {
		t.Error("a post is not related to itself")
	}
}

func TestRelevantSet(t *testing.T) {
	posts := Generate(Config{Domain: TechSupport, NumPosts: 300, Seed: 7})
	q := posts[0]
	rel := RelevantSet(posts, q)
	if len(rel) == 0 {
		t.Fatal("query post has no relevant documents in a 300-post corpus")
	}
	if rel[q.ID] {
		t.Error("query must not be relevant to itself")
	}
	for id := range rel {
		if !Related(q, posts[id]) {
			t.Errorf("post %d in relevant set but not related", id)
		}
	}
}

func TestVocabularyOverlapWithinTopic(t *testing.T) {
	// Posts of the same topic must share vocabulary heavily even across
	// variants — the confusability that defeats whole-post matching.
	posts := Generate(Config{Domain: TechSupport, NumPosts: 300, Seed: 8})
	byTopicVariant := map[[2]int][]Post{}
	for _, p := range posts {
		key := [2]int{p.Topic, p.Variant}
		byTopicVariant[key] = append(byTopicVariant[key], p)
	}
	var sameTopic, crossTopic []float64
	for _, p := range posts[:40] {
		for _, q := range posts[40:80] {
			ov := overlap(p.Text, q.Text)
			if p.Topic == q.Topic {
				sameTopic = append(sameTopic, ov)
			} else {
				crossTopic = append(crossTopic, ov)
			}
		}
	}
	if len(sameTopic) == 0 || len(crossTopic) == 0 {
		t.Skip("sample too small for both groups")
	}
	if mean(sameTopic) <= mean(crossTopic) {
		t.Errorf("same-topic vocabulary overlap %.3f should exceed cross-topic %.3f",
			mean(sameTopic), mean(crossTopic))
	}
}

func overlap(a, b string) float64 {
	aw := map[string]bool{}
	for _, w := range contentWords(a) {
		aw[w] = true
	}
	if len(aw) == 0 {
		return 0
	}
	shared := 0
	bw := map[string]bool{}
	for _, w := range contentWords(b) {
		if aw[w] && !bw[w] {
			shared++
		}
		bw[w] = true
	}
	return float64(shared) / float64(len(aw))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestSimulateAnnotations(t *testing.T) {
	posts := Generate(Config{Domain: TechSupport, NumPosts: 30, Seed: 9})
	cfg := AnnotatorConfig{NumAnnotators: 10, Seed: 1}
	for _, p := range posts {
		ann := Simulate(p, cfg)
		if len(ann.CharBorders) != 10 || len(ann.SentenceBorders) != 10 {
			t.Fatalf("wrong annotator count")
		}
		nSents := p.numSentences()
		for a := range ann.SentenceBorders {
			prev := 0
			for _, sb := range ann.SentenceBorders[a] {
				if sb <= 0 || sb >= nSents {
					t.Fatalf("sentence border %d out of range (n=%d)", sb, nSents)
				}
				if sb <= prev && prev != 0 {
					t.Fatalf("sentence borders not increasing")
				}
				prev = sb
			}
			for _, cb := range ann.CharBorders[a] {
				if cb < 0 || cb > len(p.Text) {
					t.Fatalf("char border %d out of text range", cb)
				}
			}
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	p := GeneratePost(Travel, 3, 5)
	cfg := AnnotatorConfig{NumAnnotators: 5, Seed: 77}
	a := Simulate(p, cfg)
	b := Simulate(p, cfg)
	for i := range a.CharBorders {
		if len(a.CharBorders[i]) != len(b.CharBorders[i]) {
			t.Fatal("simulation not deterministic")
		}
		for j := range a.CharBorders[i] {
			if a.CharBorders[i][j] != b.CharBorders[i][j] {
				t.Fatal("simulation not deterministic")
			}
		}
	}
}

func TestMeanSegmentsPerAnnotation(t *testing.T) {
	posts := Generate(Config{Domain: TechSupport, NumPosts: 100, Seed: 10})
	var total float64
	for _, p := range posts {
		ann := Simulate(p, AnnotatorConfig{NumAnnotators: 8, Seed: 2})
		total += ann.meanSegmentsPerAnnotation()
	}
	avg := total / float64(len(posts))
	// The paper's annotators found 4.2 segments per HP post on average; the
	// simulation should land in a comparable band.
	if avg < 2.5 || avg > 6.5 {
		t.Errorf("mean segments per annotation = %.2f, want within [2.5, 6.5]", avg)
	}
	var empty Annotations
	if empty.meanSegmentsPerAnnotation() != 0 {
		t.Error("empty annotations should average 0")
	}
}

func TestIntentionsAndDomainString(t *testing.T) {
	if TechSupport.String() != "TechSupport" || Travel.String() != "Travel" || Programming.String() != "Programming" {
		t.Error("Domain.String mismatch")
	}
	ints := Intentions(TechSupport)
	if len(ints) < 5 {
		t.Errorf("TechSupport has %d intentions, want >= 5", len(ints))
	}
	found := false
	for _, l := range ints {
		if l == "help request" {
			found = true
		}
	}
	if !found {
		t.Error("REQUEST placeholder not resolved to 'help request'")
	}
}

func BenchmarkGeneratePost(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GeneratePost(TechSupport, i, 1)
	}
}

// meanSegmentsPerAnnotation returns the average segment count implied by
// the simulated annotations (the paper reports 4.2 for HP Forum, 5.2 for
// TripAdvisor).
func (a Annotations) meanSegmentsPerAnnotation() float64 {
	if len(a.SentenceBorders) == 0 {
		return 0
	}
	var total float64
	for _, borders := range a.SentenceBorders {
		total += float64(len(borders) + 1)
	}
	return total / float64(len(a.SentenceBorders))
}

// goldBorders returns the char offsets of the post's true segment borders
// (the start of each segment except the first).
func (p Post) goldBorders() []int {
	if len(p.Segments) <= 1 {
		return nil
	}
	out := make([]int, 0, len(p.Segments)-1)
	for _, s := range p.Segments[1:] {
		out = append(out, s.Start)
	}
	return out
}

// numSentences returns the total sentence count of the post.
func (p Post) numSentences() int {
	n := 0
	for _, s := range p.Segments {
		n += s.NumSents
	}
	return n
}

// numTopics returns the number of topics a domain generates from.
func numTopics(d Domain) int { return len(spec(d).topics) }

// numVariants returns the number of request variants of a domain topic.
func numVariants(d Domain, topic int) int { return len(spec(d).topics[topic].variants) }

// contentWords is text's lower-cased words without stopwords.
func contentWords(text string) []string {
	var out []string
	for _, s := range textproc.SplitSentences(text) {
		for start, end := textproc.NextToken(s.Text, 0); start < end; start, end = textproc.NextToken(s.Text, end) {
			tok := s.Text[start:end]
			if w := strings.ToLower(tok); textproc.IsWord(tok) && !textproc.IsStopword(w) {
				out = append(out, w)
			}
		}
	}
	return out
}
