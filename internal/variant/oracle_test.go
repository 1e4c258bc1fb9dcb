package variant

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
)

// refTile is Tile as it was while a Window option bounded the scoring
// context: the surviving borders are re-scored in the context of the
// current segmentation every round, clamped to one sentence unit per side
// (the Window default, and the only value ever used). Tile scores each
// border once; refTile holds it to the same borders.
func refTile(t Tile, d *segment.Doc) segment.Segmentation {
	n := d.Len()
	if n <= 1 {
		return segment.Segmentation{N: n}
	}
	sf := t.score()
	borders := allBorders(n)
	for {
		scores := make([]float64, len(borders))
		for i, b := range borders {
			lo, hi := 0, n
			if i > 0 {
				lo = borders[i-1]
			}
			if i+1 < len(borders) {
				hi = borders[i+1]
			}
			scores[i] = sf.BorderScore(d, max(lo, b-1), b, min(hi, b+1))
		}
		mean, std := segment.MeanStd(scores)
		threshold := mean - float64(t.c()*std)
		var kept []int
		for i, b := range borders {
			if scores[i] >= threshold {
				kept = append(kept, b)
			}
		}
		if len(kept) == len(borders) || len(kept) == 0 {
			return segment.Segmentation{Borders: kept, N: n}
		}
		borders = kept
	}
}

// oracleTile is every score function and a second C of Tile.
var oracleTile = []Tile{
	{}, {C: 0.3}, {Score: Richness{}}, {Score: Cosine}, {Score: Euclidean}, {Score: Manhattan}, {Score: FStat{}},
}

// checkTileOracle segments d under every option set with Tile and its
// reference, fails on the first difference (nil and empty border lists
// are told apart), and returns how many pairs it compared.
func checkTileOracle(t testing.TB, d *segment.Doc) int {
	t.Helper()
	for _, tl := range oracleTile {
		if got, want := tl.Segment(d), refTile(tl, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tile %+v on %q:\nTile      %#v\nreference %#v", tl, d.Text, got, want)
		}
	}
	return len(oracleTile)
}

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

// fuzzCorpusTexts returns every string argument of the checked-in fuzz
// corpora under the given globs.
func fuzzCorpusTexts(t testing.TB, globs ...string) []string {
	t.Helper()
	var out []string
	for _, g := range globs {
		files, err := filepath.Glob(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(data), "\n")[1:] {
				if arg, ok := strings.CutPrefix(line, "string("); ok {
					raw, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
					if err != nil {
						t.Fatalf("%s: %v", f, err)
					}
					out = append(out, raw)
				}
			}
		}
	}
	return out
}

// TestTileMatchesReference holds Tile to the quadratic reference: the
// fixtures, 1 500 posts of each of the four domains as the benchmark draws
// them, each also wrapped in markup, and the text layer's and the segment
// and variant packages' fuzz corpora, under every option set.
func TestTileMatchesReference(t *testing.T) {
	const posts = 1500
	pairs := 0
	fixtures := []string{
		"", "One.", "One. Two.", docA, threeIntentions,
		"I installed the driver. I rebooted the machine. I checked the cable. " +
			"I replaced the toner. I tested the printer. I updated the firmware.",
		"<p>First sentence here.</p><p>Second sentence here.</p><script>x</script>",
	}
	fixtures = append(fixtures, fuzzCorpusTexts(t,
		"../textproc/testdata/fuzz/*/*", "../segment/testdata/fuzz/*/*", "testdata/fuzz/*/*")...)
	for _, text := range fixtures {
		pairs += checkTileOracle(t, segment.NewDoc(text))
	}
	for dom := forum.TechSupport; dom <= forum.Health; dom++ {
		for id := 0; id < posts; id++ {
			post := tailPost(dom, id)
			pairs += checkTileOracle(t, segment.NewDoc(post))
			pairs += checkTileOracle(t, segment.NewDoc("<div><p>"+post+"</p><br/>&nbsp;<i>It DIDN'T boot &amp; I'm stuck</i></div>"))
		}
	}
	t.Logf("%d Tile/reference pairs agree", pairs)
}

// FuzzTile: for arbitrary text, Tile under every option set gives the
// reference's borders.
func FuzzTile(f *testing.F) {
	for _, s := range []string{"", docA, threeIntentions, "Do you? I did. It will. Was it not? No.", "a. b? c! d.\n\ne"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkTileOracle(t, segment.NewDoc(text))
	})
}
