package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func buildIndex(units ...[]string) *Index {
	ix := New()
	for _, u := range units {
		ix.Add(u)
	}
	return ix
}

// randomCorpus builds units with a skewed vocabulary: a handful of
// frequent terms (long posting lists, low pIDF) plus a rare tail, so
// probes range from a few postings to more than the index has units and
// both drains run.
func randomCorpus(rng *rand.Rand, units, vocab int) [][]string {
	docs := make([][]string, units)
	for u := range docs {
		n := 3 + rng.Intn(12)
		terms := make([]string, n)
		for i := range terms {
			// Quadratic skew: low ids are far more likely.
			v := rng.Intn(vocab) * rng.Intn(vocab) / vocab
			terms[i] = fmt.Sprintf("w%03d", v)
		}
		docs[u] = terms
	}
	return docs
}

func TestAddAssignsDenseIDs(t *testing.T) {
	ix := New()
	for want := 0; want < 5; want++ {
		if got := ix.Add([]string{"a"}); got != want {
			t.Fatalf("Add returned %d, want %d", got, want)
		}
	}
	if ix.NumUnits() != 5 {
		t.Fatalf("NumUnits = %d", ix.NumUnits())
	}
}

func TestDocFreqAndNumTerms(t *testing.T) {
	ix := buildIndex(
		[]string{"raid", "disk", "disk"},
		[]string{"raid", "hotel"},
		[]string{"hotel", "pool"},
	)
	if got := ix.DocFreq("raid"); got != 2 {
		t.Errorf("DocFreq(raid) = %d, want 2", got)
	}
	if got := ix.DocFreq("disk"); got != 1 {
		t.Errorf("DocFreq(disk) = %d, want 1 (duplicates are one unit)", got)
	}
	if got := ix.DocFreq("missing"); got != 0 {
		t.Errorf("DocFreq(missing) = %d", got)
	}
	if got := ix.NumTerms(); got != 4 {
		t.Errorf("NumTerms = %d, want 4", got)
	}
}

func TestWeightEquation(t *testing.T) {
	// Unit: {disk×2, raid×1}. denom = (ln2+1)+(ln1+1); two units keep
	// avgUnique at 2 so NU = 1.
	ix := buildIndex(
		[]string{"disk", "disk", "raid"},
		[]string{"x", "y"},
	)
	denom := (math.Log(2) + 1) + (math.Log(1) + 1)
	// avgUnique = (2+2)/2 = 2, unit 0 has 2 unique terms → NU = 1.
	want := (math.Log(2) + 1) / denom
	if got := ix.Weight("disk", 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Weight(disk,0) = %v, want %v", got, want)
	}
	if got := ix.Weight("absent", 0); got != 0 {
		t.Errorf("Weight(absent) = %v, want 0", got)
	}
	if got := ix.Weight("disk", 1); got != 0 {
		t.Errorf("Weight(disk, wrong unit) = %v, want 0", got)
	}
}

func TestNUPenalizesLongUnits(t *testing.T) {
	// Unit 0 has 8 unique terms; unit 1 has 2. avgUnique = 5. Unit 0's NU
	// penalty is 8/5; unit 1 gets no boost.
	long := []string{"a", "b", "c", "d", "e", "f", "g", "shared"}
	short := []string{"shared", "z"}
	ix := buildIndex(long, short)
	wLong := ix.Weight("shared", 0)
	wShort := ix.Weight("shared", 1)
	// Same TF (1) but the long unit has a bigger denominator AND the NU
	// penalty, so its weight must be well below the short unit's.
	if wLong >= wShort {
		t.Errorf("weight in long unit %v >= weight in short unit %v", wLong, wShort)
	}
	if nu(8, 5) != 8.0/5.0 {
		t.Errorf("nu(8,5) = %v", nu(8, 5))
	}
	if nu(2, 5) != 1 {
		t.Errorf("nu(2,5) = %v, want 1 (no boost for short units)", nu(2, 5))
	}
	if nu(3, 0) != 1 {
		t.Errorf("nu with zero average = %v, want 1", nu(3, 0))
	}
}

func TestIDF(t *testing.T) {
	ix := New()
	for i := 0; i < 10; i++ {
		terms := []string{"common"}
		if i == 0 {
			terms = append(terms, "rare")
		}
		ix.Add(terms)
	}
	rare := ix.IDF("rare")
	common := ix.IDF("common")
	if rare <= 0 {
		t.Errorf("IDF(rare) = %v, want > 0", rare)
	}
	if common != 0 {
		t.Errorf("IDF(common, in all units) = %v, want 0 (floored)", common)
	}
	if ix.IDF("absent") != 0 {
		t.Error("IDF(absent) should be 0")
	}
	want := math.Log((10 - 1 + 0.5) / 1.5)
	if math.Abs(rare-want) > 1e-12 {
		t.Errorf("IDF(rare) = %v, want %v", rare, want)
	}
}

func TestQueryRanksSharedRareTermsFirst(t *testing.T) {
	ix := buildIndex(
		[]string{"raid", "performance", "degrade"}, // 0: full match
		[]string{"raid", "hotel", "pool"},          // 1: partial
		[]string{"hotel", "pool", "beach"},         // 2: unrelated
		[]string{"printer", "toner"},               // 3: unrelated
		[]string{"performance", "degrade", "disk"}, // 4: close match
	)
	q := TermFrequencies([]string{"raid", "performance", "degrade"})
	res := ix.Query(q, 3, nil)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].Unit != 0 {
		t.Errorf("top result = unit %d, want 0", res[0].Unit)
	}
	// Scores must be descending.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Errorf("results not sorted: %v", res)
		}
	}
	// Unit 2 and 3 share no query term → absent.
	for _, r := range res {
		if r.Unit == 2 || r.Unit == 3 {
			t.Errorf("unrelated unit %d ranked", r.Unit)
		}
	}
}

func TestQueryExclude(t *testing.T) {
	ix := buildIndex(
		[]string{"raid", "disk"},
		[]string{"raid", "disk"},
	)
	res := ix.Query(TermFrequencies([]string{"raid", "disk"}), 10, func(u int) bool { return u == 0 })
	for _, r := range res {
		if r.Unit == 0 {
			t.Fatal("excluded unit returned")
		}
	}
}

func TestQueryTopNBounds(t *testing.T) {
	ix := New()
	for i := 0; i < 50; i++ {
		terms := []string{"t"}
		if i < 12 {
			terms = append(terms, "rare")
		}
		ix.Add(terms)
	}
	ix.Add([]string{"other"})
	res := ix.Query(TermFrequencies([]string{"rare"}), 5, nil)
	if len(res) != 5 {
		t.Fatalf("topN=5 returned %d results", len(res))
	}
	if got := ix.Query(nil, 5, nil); len(got) != 0 {
		t.Error("empty query should return no results")
	}
	if got := ix.Query(TermFrequencies([]string{"t"}), 0, nil); got != nil {
		t.Error("topN=0 should return nil")
	}
}

func TestQueryDeterministicOnTies(t *testing.T) {
	ix := buildIndex(
		[]string{"a", "unique1"},
		[]string{"a", "unique2"},
		[]string{"a", "unique3"},
		[]string{"b"},
	)
	q := TermFrequencies([]string{"a"})
	first := ix.Query(q, 2, nil)
	for i := 0; i < 10; i++ {
		again := ix.Query(q, 2, nil)
		for j := range first {
			if first[j] != again[j] {
				t.Fatal("tied query results are nondeterministic")
			}
		}
	}
}

// Property: query scores are finite, non-negative, and results respect topN
// and descending order.
func TestQueryProperty(t *testing.T) {
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	f := func(unitSpec [][]uint8, query []uint8, topN8 uint8) bool {
		ix := New()
		for _, spec := range unitSpec {
			var terms []string
			for _, s := range spec {
				terms = append(terms, vocab[int(s)%len(vocab)])
			}
			if len(terms) == 0 {
				terms = []string{"empty"}
			}
			ix.Add(terms)
		}
		var qterms []string
		for _, s := range query {
			qterms = append(qterms, vocab[int(s)%len(vocab)])
		}
		topN := 1 + int(topN8%10)
		res := ix.Query(TermFrequencies(qterms), topN, nil)
		if len(res) > topN {
			return false
		}
		for i, r := range res {
			if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) || r.Score < 0 {
				return false
			}
			if i > 0 && r.Score > res[i-1].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	ix := buildIndex(
		[]string{"raid", "controller", "performance"},
		[]string{"hotel", "pool"},
		[]string{"raid", "hotel"},
	)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	restored := New()
	if err := restored.Load(buf.Bytes()); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if restored.NumUnits() != ix.NumUnits() || restored.NumTerms() != ix.NumTerms() {
		t.Fatal("restored index size mismatch")
	}
	q := TermFrequencies([]string{"raid", "performance"})
	a := ix.Query(q, 10, nil)
	b := restored.Query(q, 10, nil)
	if len(a) != len(b) {
		t.Fatalf("result count mismatch: %d vs %d", len(a), len(b))
	}
	sort.Slice(a, func(i, j int) bool { return a[i].Unit < a[j].Unit })
	sort.Slice(b, func(i, j int) bool { return b[i].Unit < b[j].Unit })
	for i := range a {
		if a[i].Unit != b[i].Unit || math.Abs(a[i].Score-b[i].Score) > 1e-12 {
			t.Fatalf("result %d differs after round trip: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPersistEmptyIndex(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New().WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo empty: %v", err)
	}
	restored := New()
	if err := restored.Load(buf.Bytes()); err != nil {
		t.Fatalf("Load empty: %v", err)
	}
	if restored.NumUnits() != 0 {
		t.Fatal("restored empty index has units")
	}
	// Must still be usable after restore.
	restored.Add([]string{"x"})
	if restored.NumUnits() != 1 {
		t.Fatal("restored index not usable")
	}
}

func TestTermFrequencies(t *testing.T) {
	tf := TermFrequencies([]string{"a", "b", "a", "a"})
	if tf["a"] != 3 || tf["b"] != 1 {
		t.Errorf("TermFrequencies = %v", tf)
	}
}

func BenchmarkQuery(b *testing.B) {
	ix := New()
	vocab := []string{"raid", "disk", "hotel", "pool", "printer", "toner",
		"driver", "linux", "install", "performance", "degrade", "jbod"}
	for i := 0; i < 10000; i++ {
		terms := []string{vocab[i%12], vocab[(i*7+3)%12], vocab[(i*5+1)%12]}
		ix.Add(terms)
	}
	q := TermFrequencies([]string{"raid", "performance", "install"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(q, 10, nil)
	}
}

func BenchmarkAdd(b *testing.B) {
	ix := New()
	terms := []string{"raid", "disk", "performance", "install", "linux", "degrade"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Add(terms)
	}
}

func TestExplainReconcilesWithQuery(t *testing.T) {
	// The explain contract at the index layer: for every unit Query
	// scores, the sum of Explain's per-term products must reproduce the
	// unit's score bit-for-bit (same factors, same summation order).
	ix := buildIndex(
		[]string{"disk", "click", "boot", "fail", "disk"},
		[]string{"disk", "boot", "slow", "fan"},
		[]string{"screen", "flicker", "driver", "driver"},
		[]string{"disk", "fail", "smart", "error", "backup"},
		[]string{"boot", "loop", "bios", "reset"},
	)
	for _, unit := range [][]string{
		{"disk", "click", "boot", "fail", "disk"},
		{"screen", "flicker", "driver", "driver"},
	} {
		q := TermFrequencies(unit)
		results := ix.Query(q, 10, nil)
		if len(results) == 0 {
			t.Fatal("no results to explain")
		}
		for _, r := range results {
			var sum float64
			for _, ts := range ix.Explain(q, r.Unit) {
				if ts.Product != ts.QueryTF*ts.Weight*ts.IDF {
					t.Fatalf("unit %d term %q: product %v != %v·%v·%v",
						r.Unit, ts.Term, ts.Product, ts.QueryTF, ts.Weight, ts.IDF)
				}
				sum += ts.Product
			}
			if sum != r.Score {
				t.Fatalf("unit %d: explain sum %v != query score %v (Δ %g)",
					r.Unit, sum, r.Score, math.Abs(sum-r.Score))
			}
		}
	}
}

func TestExplainUnknownUnitAndTerms(t *testing.T) {
	ix := buildIndex([]string{"a", "b"}, []string{"b", "c"})
	if got := ix.Explain(TermFrequencies([]string{"a"}), -1); got != nil {
		t.Fatalf("Explain(-1) = %v, want nil", got)
	}
	if got := ix.Explain(TermFrequencies([]string{"a"}), 99); got != nil {
		t.Fatalf("Explain(out of range) = %v, want nil", got)
	}
	// A query of terms absent from the unit explains to an empty set.
	if got := ix.Explain(TermFrequencies([]string{"zzz"}), 0); len(got) != 0 {
		t.Fatalf("Explain(absent term) = %v, want empty", got)
	}
}
