package segment

import (
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/forum"
	"repro/internal/pos"
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

// BenchmarkNewDocAllMiss is NewDoc on posts whose every word is new to the
// word memo: 512 posts of ten sentences of ten distinct "zq<n>x" tokens,
// 51 200 words cycling through a memo of 4 096 slots, so every word has
// been evicted before it comes round again. It is the front end's cost
// on text that shares no vocabulary with what came before.
func BenchmarkNewDocAllMiss(b *testing.B) {
	texts := make([]string, 512)
	n := 0
	for i := range texts {
		var sb strings.Builder
		for range 10 {
			for w := range 10 {
				if w > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString("zq")
				sb.WriteString(strconv.Itoa(n))
				sb.WriteByte('x')
				n++
			}
			sb.WriteString(". ")
		}
		texts[i] = sb.String()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDoc = NewDoc(texts[i%len(texts)])
	}
}

// refDoc is what NewDoc computes, composed from the stages' own
// uncached entry points, one after the other: every token lower-cased,
// tagged by pos.Lexical and, per sentence, pos.Repair; the sentence
// annotated; its words filtered and stemmed by textproc. No word record
// and no memo is involved. (Each stage is held to its straight-line
// reference in its own package: textproc and pos, oracle_test.go.)
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
		var tags []pos.TaggedToken
		r.terms[i] = []string{}
		for start, end := textproc.NextToken(s.Text, 0); start < end; start, end = textproc.NextToken(s.Text, end) {
			tok := s.Text[start:end]
			lower := strings.ToLower(tok)
			tags = append(tags, pos.Lexical(lower))
			if textproc.IsWord(tok) && !textproc.IsStopword(lower) {
				r.terms[i] = append(r.terms[i], textproc.Stem(lower))
			}
		}
		pos.Repair(tags)
		r.anns[i] = cm.AnnotateTagged(s, tags)
		r.prefix[i+1] = r.prefix[i].Add(r.anns[i])
	}
	return r
}

// checkDoc holds NewDoc(raw) to the reference: the text, the sentence
// spans, each sentence's annotation, the prefix sums and each sentence's
// terms.
func checkDoc(t *testing.T, raw string) {
	t.Helper()
	d, want := NewDoc(raw), newRefDoc(raw)
	if d.Text != want.text {
		t.Fatalf("NewDoc(%q).Text = %q, want %q", raw, d.Text, want.text)
	}
	if !reflect.DeepEqual(d.Sents, want.sents) {
		t.Fatalf("NewDoc(%q).Sents = %+v, want %+v", raw, d.Sents, want.sents)
	}
	if !reflect.DeepEqual(d.prefix, want.prefix) {
		t.Fatalf("NewDoc(%q).prefix = %+v, want %+v", raw, d.prefix, want.prefix)
	}
	for i := range want.sents {
		if got := d.Range(i, i+1); got != want.anns[i] {
			t.Fatalf("NewDoc(%q).Range(%d, %d) = %+v, want %+v", raw, i, i+1, got, want.anns[i])
		}
		if got := d.Terms(i, i+1); !reflect.DeepEqual(got, want.terms[i]) {
			t.Fatalf("NewDoc(%q).Terms(%d, %d) = %q, want %q", raw, i, i+1, got, want.terms[i])
		}
	}
}

// TestNewDocMatchesStagewiseComposition: every field of the Doc — text,
// sentences with their offsets, annotations, prefix sums, stemmed terms —
// over posts of all four domains as the benchmark draws them, marked-up
// and odd-byte fixtures, and the text layer's checked-in fuzz corpora.
func TestNewDocMatchesStagewiseComposition(t *testing.T) {
	for d := forum.TechSupport; d <= forum.Health; d++ {
		for id := 0; id < 200; id++ {
			post := tailPost(d, id)
			checkDoc(t, post)
			checkDoc(t, "<div><p>"+post+"</p><br/>&nbsp;<i>It DIDN'T boot &amp; I'm stuck</i></div>")
		}
	}
	for _, raw := range docFixtures {
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

var docFixtures = []string{
	"", " \n ", "...", docA, threeIntentions,
	"<p>First sentence here.</p><p>Second sentence here.</p><script>x</script>",
	"naïve café ’quoted’ state-of-the-art x86-64 — I’m sure it didn’t. Wasn't it?",
	"I've been told they'd've gone. Rock'n'roll o'clock 'tis. DON'T SHOUT!",
	"Ünïcödé wörds were installed. 日本語のテキスト。 bad\xffbytes were mixed\xc2 in? yes.",
	"one\ntwo\n\nthree   four\t five. MySQL 5.5.3 was upgraded... e.g. the disk, cf. Fig. 2.",
	"Reinstalling " + strings.Repeat("Averyveryverylongtoken", 3) + "ing was TESTED, wasn't it; going to RETRY?",
}

// FuzzNewDoc holds NewDoc to the memo-free reference on any text: every
// /add body reaches it. The seeds are posts as the benchmark draws them,
// the fixtures above and the text layer's fuzz corpora.
func FuzzNewDoc(f *testing.F) {
	for d := forum.TechSupport; d <= forum.Health; d++ {
		for id := 0; id < 8; id++ {
			f.Add(tailPost(d, id))
		}
	}
	for _, raw := range docFixtures {
		f.Add(raw)
	}
	for _, raw := range fuzzCorpusTexts(f, "../textproc/testdata/fuzz/*/*") {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		checkDoc(t, raw)
	})
}

// TestNewDocAllocations pins the front end's allocation count and bytes.
// A post of the benchmark's kind takes the Doc's own five arrays, a string
// when HTML is stripped, and a record for every token the word memo has
// lost. Allocating per sentence, per token or per stemmer rule again would
// multiply the count (it was 242 when every stage did, 35 while sentences
// carried their tokens and every capitalised word was lower-cased anew);
// tokens kept in the Doc again would multiply the bytes.
func TestNewDocAllocations(t *testing.T) {
	// Both read a little more or less with each process's hash seed,
	// which decides which words collide in the memo: 7–10 allocations
	// and 3.1–3.2 KB a post.
	const maxAllocs, maxBytes = 12, 3600
	texts := tailPosts(forum.TechSupport, 256)
	for _, text := range texts {
		NewDoc(text) // the word memo has seen every word
	}
	i := 0
	perPost := testing.AllocsPerRun(len(texts), func() {
		sinkDoc = NewDoc(texts[i%len(texts)])
		i++
	})
	if perPost > maxAllocs {
		t.Errorf("NewDoc allocates %.0f times per post, want at most %d", perPost, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, text := range texts {
		sinkDoc = NewDoc(text)
	}
	runtime.ReadMemStats(&after)
	if perPost := (after.TotalAlloc - before.TotalAlloc) / uint64(len(texts)); perPost > maxBytes {
		t.Errorf("NewDoc allocates %d bytes per post, want at most %d", perPost, maxBytes)
	}
}
