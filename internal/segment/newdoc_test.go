package segment

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/forum"
	"repro/internal/textproc"
)

// tailPost is post id of domain d the way the repository benchmark draws
// its corpus (bench/corpus.go): the template text with 0–2 Zipf-distributed
// tail tokens ("zq<n>x", model-number-like terms that survive tokenizing
// and stemming) spliced before the final punctuation of every sentence.
func tailPost(d forum.Domain, id int) string {
	const seed = 42
	text := forum.GeneratePost(d, id, seed).Text
	rng := rand.New(rand.NewSource(seed*7_000_003 + int64(id)))
	zipf := rand.NewZipf(rng, 1.07, 4, 200_000-1)
	var b strings.Builder
	b.Grow(len(text) + 64)
	for i := 0; i < len(text); i++ {
		c := text[i]
		if (c == '.' || c == '?' || c == '!') && (i+1 == len(text) || text[i+1] == ' ') {
			for n := rng.Intn(3); n > 0; n-- {
				b.WriteString(" zq")
				b.WriteString(strconv.FormatUint(zipf.Uint64(), 10))
				b.WriteByte('x')
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

func tailPosts(d forum.Domain, n int) []string {
	texts := make([]string, n)
	for i := range texts {
		texts[i] = tailPost(d, i)
	}
	return texts
}

// BenchmarkNewDoc is the per-post cost of the text front end (HTML strip,
// sentence split, tagging, CM annotation, stop-word filter, stemming) on
// the benchmark's kind of post: what core.Build pays once per post and
// /add pays on the request path (bench's segment.newdoc_us).
func BenchmarkNewDoc(b *testing.B) {
	texts := tailPosts(forum.TechSupport, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDoc = NewDoc(texts[i%len(texts)])
	}
}

var sinkDoc *Doc

// refDoc is what NewDoc computed before the stages shared one pass over
// the words, composed from the stages' own entry points the way it used
// to be: every sentence annotated on its own, then its words lower-cased
// again, filtered and stemmed one stage after the other. (Each stage is
// held to its straight-line reference in its own package: textproc and
// pos, oracle_test.go.)
type refDoc struct {
	text   string
	sents  []textproc.Sentence
	anns   []cm.Annotation
	prefix []cm.Annotation
	terms  [][]string
}

func newRefDoc(raw string) refDoc {
	r := refDoc{text: textproc.StripHTML(raw)}
	r.sents = textproc.SplitSentences(r.text)
	r.anns = make([]cm.Annotation, len(r.sents))
	r.prefix = make([]cm.Annotation, len(r.sents)+1)
	r.terms = make([][]string, len(r.sents))
	for i, s := range r.sents {
		r.anns[i] = cm.AnnotateTagged(s, cm.TagSentence(nil, s))
		r.prefix[i+1] = r.prefix[i].Add(r.anns[i])
		r.terms[i] = []string{}
		for _, t := range s.Tokens {
			if w := strings.ToLower(t.Text); t.IsWord() && !textproc.IsStopword(w) {
				r.terms[i] = append(r.terms[i], w)
			}
		}
		r.terms[i] = stemAll(r.terms[i])
	}
	return r
}

func checkDoc(t *testing.T, raw string) {
	t.Helper()
	d, want := NewDoc(raw), newRefDoc(raw)
	switch {
	case d.Text != want.text:
		t.Fatalf("NewDoc(%q).Text = %q, want %q", raw, d.Text, want.text)
	case !reflect.DeepEqual(d.Sents, want.sents):
		t.Fatalf("NewDoc(%q).Sents = %+v, want %+v", raw, d.Sents, want.sents)
	case !reflect.DeepEqual(d.Anns, want.anns):
		t.Fatalf("NewDoc(%q).Anns = %+v, want %+v", raw, d.Anns, want.anns)
	case !reflect.DeepEqual(d.prefix, want.prefix):
		t.Fatalf("NewDoc(%q).prefix = %+v, want %+v", raw, d.prefix, want.prefix)
	case !reflect.DeepEqual(d.terms, want.terms):
		t.Fatalf("NewDoc(%q).terms = %q, want %q", raw, d.terms, want.terms)
	}
}

// TestNewDocMatchesStagewiseComposition: every field of the Doc — text,
// sentences with their offsets and tokens, annotations, prefix sums,
// stemmed terms — over posts of all four domains as the
// benchmark draws them, marked-up and odd-byte fixtures, and the text
// layer's checked-in fuzz corpora.
func TestNewDocMatchesStagewiseComposition(t *testing.T) {
	for d := forum.TechSupport; d <= forum.Health; d++ {
		for id := 0; id < 200; id++ {
			post := tailPost(d, id)
			checkDoc(t, post)
			checkDoc(t, "<div><p>"+post+"</p><br/>&nbsp;<i>It DIDN'T boot &amp; I'm stuck</i></div>")
		}
	}
	for _, raw := range []string{
		"", " \n ", "...", docA, threeIntentions,
		"<p>First sentence here.</p><p>Second sentence here.</p><script>x</script>",
		"naïve café ’quoted’ state-of-the-art x86-64 — I’m sure it didn’t. Wasn't it?",
		"I've been told they'd've gone. Rock'n'roll o'clock 'tis. DON'T SHOUT!",
		"Ünïcödé wörds were installed. 日本語のテキスト。 bad\xffbytes were mixed\xc2 in? yes.",
		"one\ntwo\n\nthree   four\t five. MySQL 5.5.3 was upgraded... e.g. the disk, cf. Fig. 2.",
	} {
		checkDoc(t, raw)
	}
	corpus := fuzzCorpusTexts(t, "../textproc/testdata/fuzz/*/*")
	if len(corpus) == 0 {
		t.Fatal("no fuzz corpora")
	}
	for _, raw := range corpus {
		checkDoc(t, raw)
	}
}

// TestNewDocAllocations pins the front end's allocation count. A post of
// the benchmark's kind takes about 35: the Doc's own arrays, one string
// per capitalised word, one memo entry per tail token the memo has lost.
// Allocating per sentence, per token or per stemmer rule again would
// multiply that (it was 242 when every stage did).
func TestNewDocAllocations(t *testing.T) {
	texts := tailPosts(forum.TechSupport, 256)
	for _, text := range texts {
		NewDoc(text) // the stem memo has seen every word
	}
	i := 0
	perPost := testing.AllocsPerRun(len(texts), func() {
		sinkDoc = NewDoc(texts[i%len(texts)])
		i++
	})
	if perPost > 60 {
		t.Errorf("NewDoc allocates %.0f times per post, want at most 60", perPost)
	}
}

// stemAll stems every word of the slice in place and returns it.
func stemAll(words []string) []string {
	for i, w := range words {
		words[i] = textproc.Stem(strings.ToLower(w))
	}
	return words
}
