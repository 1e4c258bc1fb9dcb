package segment

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/forum"
	"repro/internal/portlog"
)

// The reference below is Greedy as it was while a Window option bounded
// the scoring context: every border is re-scored in the context of the
// current segmentation after each removal, clamped to one sentence unit
// per side (the Window default, and the only value ever used). The
// shipped Greedy scores each border once; this holds it to the same
// borders. (internal/variant holds Tile to its reference the same way.)
//
// It scores a border from the annotation counts of the units either
// side, written from Sec 5.2's definitions and calling nothing in cm:
// Eq 1 is Shannon's index in base 10 (portlog.Log10, the logarithm every
// score shares, held to math by its own tests), Eq 2 one minus it,
// averaged over the communication means scored, Eq 3 the depth and Eq 4
// the plain average of the two coherences and the depth.

// refGreedy is the quadratic Greedy: one greedy elimination per
// communication mean (or one on the combined score when Plain), then the
// vote.
func refGreedy(g Greedy, d *Doc) Segmentation {
	n := d.Len()
	if n <= 1 {
		return Segmentation{N: n}
	}
	if g.Plain {
		borders := refRun(d, n, func(lo, b, hi int) (float64, float64) {
			return refScoreDepth(d, refMeans[:], lo, b, hi)
		})
		return Segmentation{Borders: borders, N: n}
	}
	defends := make(map[int]int)
	marks := make(map[int]int)
	for m := cm.Mean(0); m < cm.NumMeans; m++ {
		mean := refMeans[m : m+1]
		kept := refRun(d, n, func(lo, b, hi int) (float64, float64) {
			return refScoreDepth(d, mean, lo, b, hi)
		})
		keptSet := make(map[int]bool, len(kept))
		for _, b := range kept {
			keptSet[b] = true
		}
		for b := 1; b < n; b++ {
			lo, hi := refClamp(0, b, n)
			_, depth := refScoreDepth(d, mean, lo, b, hi)
			if depth < greedyMinDepth {
				continue
			}
			if keptSet[b] {
				defends[b]++
			} else {
				marks[b]++
			}
		}
	}
	var borders []int
	for b := 1; b < n; b++ {
		if defends[b] == 0 {
			continue
		}
		if marks[b] >= greedyQuorum || marks[b] > defends[b] {
			continue
		}
		borders = append(borders, b)
	}
	return Segmentation{Borders: borders, N: n}
}

// refRun removes the lowest-ranked failing border, re-scores the rest in
// their new context, and repeats until every border passes the threshold
// frozen over the initial scores.
func refRun(d *Doc, n int, score func(lo, b, hi int) (float64, float64)) []int {
	borders := make([]int, 0, n-1)
	for b := 1; b < n; b++ {
		borders = append(borders, b)
	}
	initial := make([]float64, len(borders))
	for i, b := range borders {
		lo, hi := refNeighborhood(borders, i, n)
		lo, hi = refClamp(lo, b, hi)
		initial[i], _ = score(lo, b, hi)
	}
	// The threshold: mean + greedyC·σ of the initial scores, products
	// rounded as Greedy's are.
	var mean, std float64
	for _, s := range initial {
		mean += s
	}
	mean = float64(mean / float64(len(initial)))
	for _, s := range initial {
		std += float64((s - mean) * (s - mean))
	}
	threshold := mean + float64(greedyC*math.Sqrt(std/float64(len(initial))))
	for len(borders) > 0 {
		worst := -1
		var worstScore float64
		for i, b := range borders {
			lo, hi := refNeighborhood(borders, i, n)
			lo, hi = refClamp(lo, b, hi)
			s, depth := score(lo, b, hi)
			if s >= threshold && depth >= greedyMinDepth {
				continue
			}
			rank := s + depth
			if worst < 0 || rank < worstScore {
				worst, worstScore = i, rank
			}
		}
		if worst < 0 {
			break
		}
		borders = append(borders[:worst], borders[worst+1:]...)
	}
	return borders
}

// refMeans is Table 1's layout: each communication mean's features,
// from its first to the next mean's first.
var refMeans = [cm.NumMeans][2]cm.Feature{
	{cm.TensePresent, cm.SubjectFirst},
	{cm.SubjectFirst, cm.StyleInterrogative},
	{cm.StyleInterrogative, cm.StatusPassive},
	{cm.StatusPassive, cm.POSVerb},
	{cm.POSVerb, cm.NumFeatures},
}

// refDiversity is Eq 1 over one mean's counts: −Σ p·log10 p over the
// non-zero cells, p a cell's share of the mean's observations; an
// empty table has diversity 0.
func refDiversity(counts []float64) float64 {
	var all float64
	for _, c := range counts {
		all += c
	}
	var div float64
	for _, c := range counts {
		if c > 0 {
			p := c / all
			div -= float64(p * portlog.Log10(p))
		}
	}
	return div
}

// refCoherence is Eq 2 over the means scored: the average of 1 − Eq 1.
func refCoherence(counts *[cm.NumFeatures]float64, means [][2]cm.Feature) float64 {
	var sum float64
	for _, m := range means {
		sum += 1.0 - refDiversity(counts[m[0]:m[1]])
	}
	return sum / float64(len(means))
}

// refScoreDepth is the Eq 4 score and the Eq 3 depth of border b between
// units [lo, b) and [b, hi), over the means scored.
func refScoreDepth(d *Doc, means [][2]cm.Feature, lo, b, hi int) (score, depth float64) {
	var left, right cm.Annotation
	d.rangeInto(&left, lo, b)
	d.rangeInto(&right, b, hi)
	var merged [cm.NumFeatures]float64
	for f := range merged {
		merged[f] = left.Counts[f] + right.Counts[f]
	}
	cl, cr, cd := refCoherence(&left.Counts, means), refCoherence(&right.Counts, means), refCoherence(&merged, means)
	if cd != 0 {
		depth = (math.Abs(cl-cd) + math.Abs(cr-cd)) / (2 * cd)
	}
	return (cl + cr + depth) / 3, depth
}

// refNeighborhood is the previous border (or the document start) and the
// next one (or the document end) around border i.
func refNeighborhood(borders []int, i, n int) (lo, hi int) {
	lo, hi = 0, n
	if i > 0 {
		lo = borders[i-1]
	}
	if i+1 < len(borders) {
		hi = borders[i+1]
	}
	return lo, hi
}

// refClamp restricts border b's context within [lo, hi) to one unit per
// side.
func refClamp(lo, b, hi int) (int, int) {
	return max(lo, b-1), min(hi, b+1)
}

// checkOracle segments d plainly and with voting, by Greedy and by its
// reference, and fails on the first difference (nil and empty border
// lists are told apart).
func checkOracle(t testing.TB, d *Doc) int {
	t.Helper()
	for _, g := range []Greedy{{}, {Plain: true}} {
		if got, want := g.Segment(d), refGreedy(g, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v on %q:\nGreedy    %#v\nreference %#v", g, d.Text, got, want)
		}
	}
	return 2
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

// TestStrategiesMatchReference holds Greedy to the quadratic reference:
// the fixtures, 1 500 posts of each of the four domains as the benchmark
// draws them, each also wrapped in markup, and the text layer's and this
// package's fuzz corpora, plain and voting.
func TestStrategiesMatchReference(t *testing.T) {
	const posts = 1500
	pairs := 0
	fixtures := []string{
		"", "One.", "One. Two.", docA, threeIntentions,
		"I installed the driver. I rebooted the machine. I checked the cable. " +
			"I replaced the toner. I tested the printer. I updated the firmware.",
		"<p>First sentence here.</p><p>Second sentence here.</p><script>x</script>",
	}
	fixtures = append(fixtures, fuzzCorpusTexts(t, "../textproc/testdata/fuzz/*/*", "testdata/fuzz/*/*")...)
	for _, text := range fixtures {
		pairs += checkOracle(t, NewDoc(text))
	}
	for dom := forum.TechSupport; dom <= forum.Health; dom++ {
		for id := 0; id < posts; id++ {
			post := tailPost(dom, id)
			pairs += checkOracle(t, NewDoc(post))
			pairs += checkOracle(t, NewDoc("<div><p>"+post+"</p><br/>&nbsp;<i>It DIDN'T boot &amp; I'm stuck</i></div>"))
		}
	}
	t.Logf("%d strategy/reference pairs agree", pairs)
}

// FuzzStrategies: for arbitrary text, Greedy plain and voting gives the
// reference's borders.
func FuzzStrategies(f *testing.F) {
	for _, s := range []string{"", docA, threeIntentions, "Do you? I did. It will. Was it not? No.", "a. b? c! d.\n\ne"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkOracle(t, NewDoc(text))
	})
}
