package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// writeIndex returns ix's compact file.
func writeIndex(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildMatchesAdd holds the bulk constructor to the incremental
// path: over a dictionary whose ids are deliberately out of term order,
// Build must produce the index Add grows unit by unit — the same file,
// the same answers from the oracle.
func TestBuildMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := randomCorpus(rng, 300, 80)
	dict := NewDict()
	dict.AppendIDs(nil, []string{"w079", "w000", "w040", "zzz", "aaa"}) // arrival order is not term order
	grown := NewIn(dict)
	units := make([][]int32, len(docs))
	for u, d := range docs {
		// Spread term frequencies over terms whose ids and strings
		// disagree, so that a denominator summed by id shows in the file.
		for i, term := range []string{"zzz", "aaa", "w040", "w000"} {
			for n := 1 + (u+3*i)%7; n > 0; n-- {
				d = append(d, term)
			}
		}
		if u == 17 { // a count past the log(tf)+1 table
			for n := 0; n < 300; n++ {
				d = append(d, "w079")
			}
		}
		docs[u] = d
		units[u] = dict.AppendIDs(nil, d)
		grown.AddCounted(CountTerms(dict.Terms(), append([]int32(nil), units[u]...), nil))
	}
	built := Build(dict, units)
	if !bytes.Equal(writeIndex(t, built), writeIndex(t, grown)) {
		t.Fatal("Build and Add wrote different files for the same units")
	}
	for _, q := range []int{0, 17, 299} {
		checkAgainstOracle(t, built, TermFrequencies(docs[q]), 10, func(u int) bool { return u == q })
	}
	if empty := Build(dict, nil); empty.NumUnits() != 0 || empty.NumTerms() != 0 {
		t.Fatal("Build over no units is not the empty index")
	}
}

// TestArrivalOrderTrap is the index half of the layout's one trap: ids
// are handed out in arrival order, Eq 7 and Eq 9 are summed in term
// order. A loaded index (dictionary sorted) takes units whose new terms
// sort before, between and after its vocabulary; every scan entry point
// must still agree with the string-sorting oracle bit for bit, with an
// index that met all the units in a fresh dictionary, and its file must
// be the one that index writes — and survive a reload unchanged.
func TestArrivalOrderTrap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	docs := randomCorpus(rng, 200, 60) // terms w000 … w059
	base := buildIndex(docs[:150]...)
	loaded := New()
	if err := loaded.Load(writeIndex(t, base)); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(loaded.dict.Terms().strings()) {
		t.Fatal("a freshly loaded dictionary should be in term order")
	}
	late := docs[150:]
	for i := range late {
		// "a…" sorts before every w-term, "w0305" between w030 and w031,
		// "zz…" after; the repeats spread the term frequencies, so that the
		// order a unit's Eq 7 denominator is summed in shows in its bits.
		for _, rep := range []struct {
			term string
			n    int
		}{{fmt.Sprintf("zz%d", i%5), 2 + i%5}, {"w0305", 2}, {fmt.Sprintf("a%02d", i%7), 1 + i%3}, {"aaa", 7}} {
			for ; rep.n > 0; rep.n-- {
				late[i] = append(late[i], rep.term)
			}
		}
	}
	scratch := buildIndex(docs[:150]...)
	for _, d := range late {
		loaded.Add(d)
		scratch.Add(d)
	}
	if sort.StringsAreSorted(loaded.dict.Terms().strings()) {
		t.Fatal("the added terms were meant to arrive out of term order")
	}
	// Eq 7's denominators against sums taken here, strings sorted here.
	// The fixture must be able to tell the orders apart: at least one
	// late unit's sum has to come out differently taken by id.
	discriminates := false
	for i, d := range late {
		tf := TermFrequencies(d)
		var names []string
		for term := range tf {
			names = append(names, term)
		}
		sum := func() (denom float64) {
			for _, term := range names {
				denom += math.Log(tf[term]) + 1
			}
			return denom
		}
		sort.Strings(names)
		inTermOrder := sum()
		if got := loaded.denoms[150+i]; got != inTermOrder {
			t.Fatalf("unit %d: denominator %v, summed in term order %v", 150+i, got, inTermOrder)
		}
		sort.Slice(names, func(a, b int) bool { return loaded.dict.Lookup(names[a]) < loaded.dict.Lookup(names[b]) })
		discriminates = discriminates || inTermOrder != sum()
	}
	if !discriminates {
		t.Fatal("no late unit's denominator depends on the summation order: the fixture pins nothing")
	}
	for q := 0; q < len(docs); q += 9 {
		q := q
		tf := TermFrequencies(docs[q])
		own := func(u int) bool { return u == q }
		checkAgainstOracle(t, loaded, tf, 12, own)
		if got, want := loaded.Query(tf, 12, own), scratch.Query(tf, 12, own); !reflect.DeepEqual(got, want) {
			t.Fatalf("unit %d: loaded-then-added %v, from scratch %v", q, got, want)
		}
		for _, r := range loaded.Query(tf, 3, own) {
			if got, want := loaded.Explain(tf, r.Unit), scratch.Explain(tf, r.Unit); !reflect.DeepEqual(got, want) {
				t.Fatalf("unit %d → %d: explanation %v, from scratch %v", q, r.Unit, got, want)
			}
		}
	}
	first := writeIndex(t, loaded)
	if !bytes.Equal(first, writeIndex(t, scratch)) {
		t.Fatal("the file depends on the order the dictionary met the terms in")
	}
	again := New()
	if err := again.Load(first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, writeIndex(t, again)) {
		t.Fatal("write → load → write is not byte-identical")
	}
}
