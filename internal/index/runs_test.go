package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/obs"
)

// checkRuns holds every list of ix to the model — the postings the units
// in docs spell, worked out here from the strings: each of the two runs
// strictly ascending, the remainder holding only TF > 1, no run
// registered empty, and the two merging (a two-finger merge written
// here, not the encoder's) to exactly the model's list. A unit filed under both
// runs, or a TF = 2 posting filed under ones, fails the merge.
func checkRuns(t *testing.T, ix *Index, docs [][]string) {
	t.Helper()
	model := make(map[string][]Posting)
	for u, d := range docs {
		for term, tf := range TermFrequencies(d) {
			model[term] = append(model[term], Posting{Unit: int32(u), TF: int32(tf)})
		}
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.slot) != len(model) || len(ix.ones) != len(model) {
		t.Fatalf("%d slots, %d ones runs for %d terms", len(ix.slot), len(ix.ones), len(model))
	}
	for s, more := range ix.more {
		if s < 0 || int(s) >= len(ix.ones) || len(more) == 0 {
			t.Fatalf("remainder registered for list %d of %d with %d postings", s, len(ix.ones), len(more))
		}
	}
	for term, want := range model {
		s, ok := ix.slot[ix.dict.Lookup(term)]
		if !ok {
			t.Fatalf("term %q has no list", term)
		}
		ones, more := ix.ones[s], ix.more[s]
		for i, u := range ones {
			if i > 0 && u <= ones[i-1] {
				t.Fatalf("term %q: ones run not strictly ascending at %d: %v", term, i, ones)
			}
		}
		for i, p := range more {
			if p.TF < 2 || (i > 0 && p.Unit <= more[i-1].Unit) {
				t.Fatalf("term %q: remainder holds %+v at %d: %v", term, p, i, more)
			}
		}
		var merged []Posting
		for len(ones) > 0 || len(more) > 0 {
			if len(more) == 0 || (len(ones) > 0 && ones[0] < more[0].Unit) {
				merged, ones = append(merged, Posting{Unit: ones[0], TF: 1}), ones[1:]
			} else {
				merged, more = append(merged, more[0]), more[1:]
			}
		}
		if !reflect.DeepEqual(merged, want) {
			t.Fatalf("term %q: runs merge to %v, the units spell %v", term, merged, want)
		}
		if got := postingsAt(ix, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("term %q: the oracle reads %v, the units spell %v", term, got, want)
		}
		if got := ix.listAt(s).len(); got != len(want) {
			t.Fatalf("term %q: document frequency %d, want %d", term, got, len(want))
		}
	}
}

// TestSplitRunsAreTheSameIndex is the layout's property test: whatever
// sequence of Add, Build and WriteTo→Load an index went through — with
// units heavy in repeated terms and one count past the log(tf)+1 table —
// its lists are the model's, split where TF = 1; every scan agrees with
// the oracle; and its file is a fixed point of write → load → write and
// the very bytes Build writes over a dictionary that met the vocabulary
// in the opposite order.
func TestSplitRunsAreTheSameIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		var docs [][]string
		ix := New()
		for step, steps := 0, 3+rng.Intn(4); step < steps; step++ {
			for _, d := range randomCorpus(rng, 1+rng.Intn(60), 20+rng.Intn(60)) {
				switch rng.Intn(3) {
				case 0:
					d = append(d, d...) // no TF = 1 posting in the unit
				case 1:
					d = append(d, d[:len(d)/2]...)
				}
				if len(docs) == 5 {
					for n := 0; n < 300; n++ {
						d = append(d, "w001")
					}
				}
				docs = append(docs, d)
				ix.Add(d)
			}
			switch rng.Intn(3) {
			case 0:
				loaded := New()
				if err := loaded.Load(writeIndex(t, ix)); err != nil {
					t.Fatal(err)
				}
				ix = loaded
			case 1:
				ix = buildFrom(NewDict(), docs)
			}
			checkRuns(t, ix, docs)
		}
		for q := 0; q < len(docs); q += 1 + len(docs)/6 {
			q := q
			checkAgainstOracle(t, ix, TermFrequencies(docs[q]), 7, func(u int) bool { return u == q })
		}
		first := writeIndex(t, ix)
		loaded := New()
		if err := loaded.Load(first); err != nil {
			t.Fatal(err)
		}
		checkRuns(t, loaded, docs)
		if !bytes.Equal(first, writeIndex(t, loaded)) {
			t.Fatal("write → load → write is not byte-identical")
		}
		// Another order: a dictionary primed with the vocabulary descending.
		vocab := make([]string, 0, len(ix.slot))
		for id := range ix.slot {
			vocab = append(vocab, ix.dict.Terms()[id])
		}
		sort.Sort(sort.Reverse(sort.StringSlice(vocab)))
		reversed := NewDict()
		reversed.AppendIDs(nil, vocab)
		if !bytes.Equal(first, writeIndex(t, buildFrom(reversed, docs))) {
			t.Fatal("the file depends on the order the dictionary met the terms in")
		}
	}
}

// buildFrom is Build over string units, interned into dict.
func buildFrom(dict *Dict, docs [][]string) *Index {
	units := make([][]int32, len(docs))
	for u, d := range docs {
		units[u] = dict.AppendIDs(nil, d)
	}
	return Build(dict, units)
}

// probeCost runs one probe the way scanLocked does —
// activeLocked, then exhaust — and returns what exhaust reports beside
// the postings the probe's lists hold.
func probeCost(ix *Index, queryTF map[string]float64, topN int, exclude func(int) bool) (candidates, visited int, postings int64) {
	terms, qf, idfs, avg := frozenArgs(ix, queryTF)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	acc := acquire(len(ix.denoms))
	postings = ix.activeLocked(acc, terms, qf, idfs)
	candidates, visited = acc.exhaust(ix.normsLocked(avg), len(ix.denoms), postings, topN, nil, exclude)
	acc.release()
	return candidates, visited, postings
}

// rareIndex builds units units that share one term, "pad", and each
// hold a term of their own, "r<unit>": a query of m rare terms
// accumulates exactly m postings into m units.
func rareIndex(units int) *Index {
	ix := New()
	for u := 0; u < units; u++ {
		ix.Add([]string{"pad", fmt.Sprintf("r%d", u)})
	}
	return ix
}

func rareQuery(units, m int) map[string]float64 {
	q := make(map[string]float64, m)
	for i := 0; i < m; i++ {
		q[fmt.Sprintf("r%d", i*units/m)] = 1
	}
	return q
}

// TestDrainCostFollowsTheProbe pins "cost follows what the probe
// touched" without a clock: a probe that accumulates fewer postings than
// the index has units drains by the bitset and reads one word per 64
// units plus the cells it touched — not the index; from exactly one
// posting a unit on, the drain reads every cell of the index once, which
// is then no more than the postings accumulated. Either way the scored
// units are counted exactly and the results are the oracle's.
func TestDrainCostFollowsTheProbe(t *testing.T) {
	const units = 4096 + 37 // not a whole number of blocks
	ix := rareIndex(units)
	words := (units + 63) / 64
	for _, m := range []int{1, 10, units / 64, units / 2, units - 1, units} {
		q := rareQuery(units, m)
		candidates, visited, postings := probeCost(ix, q, 10, nil)
		if postings != int64(m) || candidates != m {
			t.Fatalf("%d rare terms: %d postings, %d candidates", m, postings, candidates)
		}
		if m < units {
			if visited > m+words {
				t.Errorf("%d postings into %d units: the drain read %d words and cells, want at most %d + %d", m, units, visited, m, words)
			}
		} else if visited != units || int64(visited) > postings {
			t.Errorf("%d postings into %d units: the drain read %d cells", m, units, visited)
		}
		if got, want := ix.Query(q, 10, nil), naiveQuery(ix, q, 10, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%d rare terms: %v, oracle %v", m, got, want)
		}
		checkPoolClean(t)
	}
	// The TF > 1 kernel on both drains, alone and beside the ones kernel:
	// unit u holds "d<u mod 5>" twice, "r<u>" once and, every third, "third".
	dup := New()
	for u := 0; u < 300; u++ {
		dup.Add([]string{fmt.Sprintf("d%d", u%5), fmt.Sprintf("d%d", u%5), fmt.Sprintf("r%d", u), "third"}[:3+(u+2)%3/2])
	}
	all := map[string]float64{"d0": 1, "d1": 1, "d2": 1, "d3": 1, "d4": 1}
	both := map[string]float64{"d0": 1, "d1": 2, "d2": 1, "d3": 1, "d4": 1, "third": 1, "r7": 3}
	for _, tc := range []struct {
		q                   map[string]float64
		candidates, visited int
	}{
		{map[string]float64{"third": 1}, 100, 100 + 5},
		{map[string]float64{"d0": 1, "d3": 1}, 120, 120 + 5},
		{map[string]float64{"d1": 1, "third": 1, "r8": 1}, 141, 141 + 5},
		{all, 300, 300},
		{both, 300, 300},
	} {
		candidates, visited, _ := probeCost(dup, tc.q, 5, nil)
		if candidates != tc.candidates || visited != tc.visited {
			t.Errorf("query %v: %d candidates, %d visited, want %d and %d", tc.q, candidates, visited, tc.candidates, tc.visited)
		}
		if got, want := dup.Query(tc.q, 5, nil), naiveQuery(dup, tc.q, 5, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("query %v: %v, oracle %v", tc.q, got, want)
		}
		checkPoolClean(t)
	}
}

// TestDensePoolHygiene is TestPoolSharedAcrossGrowingIndices' clean-pool
// inspection aimed at the dense drain: after a dense probe, after one
// whose every unit was rejected against a Theta above all scores, and
// when an accumulator sized for a larger index serves a dense probe of a
// smaller one whose TF > 1 postings marked the bitset — cells past the
// small index's units were never written, and the words are cleared.
func TestDensePoolHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	big, small := randomCorpus(rng, 2000, 40), randomCorpus(rng, 70, 30)
	for u := range small {
		small[u] = append(small[u], small[u][0], small[u][0]) // TF > 1 in every unit
	}
	bigIx, smallIx := buildIndex(big...), buildIndex(small...)
	// dense finds a unit of docs that, as a query, is a dense probe.
	dense := func(ix *Index, docs [][]string) map[string]float64 {
		t.Helper()
		for try := 0; try < 50; try++ {
			q := TermFrequencies(docs[rng.Intn(len(docs))])
			if _, visited, postings := probeCost(ix, q, 10, nil); visited == len(docs) && postings >= int64(visited) {
				return q
			}
		}
		t.Fatal("fixture: no unit is a dense probe of its index")
		return nil
	}
	for step := 0; step < 30; step++ {
		bq := dense(bigIx, big)
		checkPoolClean(t)
		checkAgainstOracle(t, bigIx, bq, 1+rng.Intn(12), nil)
		checkPoolClean(t)
		// The pool now holds an accumulator of at least 2 000 cells.
		sq := dense(smallIx, small)
		checkPoolClean(t)
		checkAgainstOracle(t, smallIx, sq, 1+rng.Intn(12), func(u int) bool { return u%4 == 0 })
		checkPoolClean(t)
		terms, qf, idfs, avg := frozenArgs(smallIx, sq)
		if got := smallIx.QueryFrozen(nil, terms, qf, idfs, avg, 5, thetaAt(1e9), nil, nil); len(got) != 0 {
			t.Fatalf("a Theta above every score let %v through", got)
		}
		checkPoolClean(t)
	}
}

// TestCandidatesCountScoredUnits holds what a probe reports as its
// candidates — the index.query.candidates histogram and the trace
// event's attribute — to the oracle's count of units with a score, on
// the bitset drain and on the dense one.
func TestCandidatesCountScoredUnits(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	rng := rand.New(rand.NewSource(79))
	docs := randomCorpus(rng, 900, 100)
	ix := buildIndex(docs...)
	drains := map[bool]int{}
	for i := 0; i < 60; i++ {
		d := docs[rng.Intn(len(docs))]
		if i%2 == 0 { // its rarest term alone: a sparse probe
			d = append([]string(nil), d...)
			sort.Strings(d)
			d = d[len(d)-1:]
		}
		q := TermFrequencies(d)
		terms, qf, idfs, avg := frozenArgs(ix, q)
		want := int64(len(naiveScores(ix, terms, qf, idfs, avg)))
		_, visited, _ := probeCost(ix, q, 10, nil)
		drains[visited == len(docs)]++

		before := histQueryCandidates.Snapshot()
		tr := obs.NewTrace()
		ix.QueryFrozen(nil, terms, qf, idfs, avg, 10, nil, func(u int) bool { return u%7 == 0 }, tr)
		after := histQueryCandidates.Snapshot()
		if after.Count != before.Count+1 || after.Sum-before.Sum != want {
			t.Fatalf("query %v: histogram took %d observations summing %d, oracle scores %d units", q, after.Count-before.Count, after.Sum-before.Sum, want)
		}
		var traced int64 = -1
		for _, ev := range tr.Events() {
			for _, a := range ev.Attrs {
				if ev.Name == "index.query" && a.Key == "candidates" {
					traced = a.Int
				}
			}
		}
		if traced != want {
			t.Fatalf("query %v: trace says %d candidates, oracle scores %d units", q, traced, want)
		}
	}
	if drains[true] < 10 || drains[false] < 10 {
		t.Fatalf("fixture: %d dense and %d bitset drains: both must be exercised", drains[true], drains[false])
	}
}
