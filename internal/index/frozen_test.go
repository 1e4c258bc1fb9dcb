package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// frozenArgs resolves a query TF map into the pre-sorted, pre-aligned
// argument set QueryFrozen expects, via FrozenScoring — the caller-side
// half the matching layer performs in QuerySegs.
func frozenArgs(ix *Index, queryTF map[string]float64) (terms []int32, qf, idfs []float64, avg float64) {
	var names []string
	for t := range queryTF {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		terms = append(terms, ix.dict.Lookup(t))
		qf = append(qf, queryTF[t])
	}
	idfs, avg = ix.FrozenScoring(terms, nil)
	return terms, qf, idfs, avg
}

func TestFrozenScoringMatchesIDF(t *testing.T) {
	ix := buildIndex(
		[]string{"raid", "disk", "disk", "array"},
		[]string{"raid", "hotel"},
		[]string{"hotel", "pool", "raid"},
		[]string{"disk", "array", "cache"},
	)
	terms := []string{"array", "cache", "disk", "hotel", "missing", "pool", "raid"}
	ids := make([]int32, len(terms))
	for i, term := range terms {
		ids[i] = ix.dict.Lookup(term)
	}
	idfs, avg := ix.FrozenScoring(ids, nil)
	if len(idfs) != len(terms) {
		t.Fatalf("got %d idfs for %d terms", len(idfs), len(terms))
	}
	for i, term := range terms {
		if idfs[i] != ix.IDF(term) {
			t.Errorf("frozen pIDF(%s) = %g, IDF = %g", term, idfs[i], ix.IDF(term))
		}
	}
	if idfs[4] != 0 {
		t.Errorf("unknown term pIDF = %g, want 0", idfs[4])
	}
	// unique-term counts are 3, 2, 3, 3.
	if want := 11.0 / 4.0; avg != want {
		t.Errorf("avgUnique = %g, want %g", avg, want)
	}
}

// TestQueryFrozenMatchesQueryTraced (named from when Query had a traced
// twin; QueryFrozen takes the trace now) pins the contract QueryFrozen is
// named for: with factors frozen from the same index state, the scan
// returns bit-identical scores in the identical order as the standard
// query path, at every depth and with the exclude predicate applied.
func TestQueryFrozenMatchesQueryTraced(t *testing.T) {
	vocab := []string{"raid", "disk", "array", "cache", "hotel", "pool", "swap", "boot"}
	var units [][]string
	for i := 0; i < 40; i++ {
		u := []string{vocab[i%len(vocab)], vocab[(i*3+1)%len(vocab)], vocab[(i*5+2)%len(vocab)]}
		if i%4 == 0 {
			u = append(u, u[0]) // a repeated term, so LogTF > 1 paths run
		}
		units = append(units, u)
	}
	ix := buildIndex(units...)
	queryTF := TermFrequencies([]string{"raid", "raid", "disk", "cache", "missing"})
	terms, qf, idfs, avg := frozenArgs(ix, queryTF)
	for _, topN := range []int{1, 3, 8, 100} {
		want := ix.Query(queryTF, topN, nil)
		got := ix.QueryFrozen(nil, terms, qf, idfs, avg, topN, nil, nil, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("topN=%d: frozen %v != standard %v", topN, got, want)
		}
	}
	excl := func(u int) bool { return u%2 == 0 }
	want := ix.Query(queryTF, 10, excl)
	got := ix.QueryFrozen(nil, terms, qf, idfs, avg, 10, nil, excl, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("excluded: frozen %v != standard %v", got, want)
	}
	if got := ix.QueryFrozen(nil, terms, qf, idfs, avg, 0, nil, nil, nil); got != nil {
		t.Errorf("topN=0 should return nil, got %v", got)
	}
	if got := New().QueryFrozen(nil, terms, qf, idfs, avg, 5, nil, nil, nil); got != nil {
		t.Errorf("empty index should return nil, got %v", got)
	}
}

// TestThetaLive holds the drain to what a shared Theta promises. Under a
// Theta another leg already raised — to the oracle's m-th score, or past
// every score — it returns exactly the oracle's entries at or above it,
// in order, proves nothing new (it never holds n units) and leaves the
// pool clean. From no bound it returns the full list and raises the
// Theta to its n-th score, but only when it holds n non-excluded units:
// an excluded unit is not in the merged list, so its score bounds
// nothing.
func TestThetaLive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	docs := randomCorpus(rng, 600, 90)
	ix := buildIndex(docs...)
	queryTF := TermFrequencies(docs[11])
	terms, qf, idfs, avg := frozenArgs(ix, queryTF)
	const topN = 10
	all := naiveQuery(ix, queryTF, len(docs), nil)
	if len(all) < 3*topN {
		t.Fatalf("need %d scored units, got %d", 3*topN, len(all))
	}
	top3 := func(u int) bool { return u == all[0].Unit || u == all[1].Unit || u == all[2].Unit }
	for _, exclude := range []func(int) bool{nil, top3} {
		oracle := naiveQuery(ix, queryTF, topN, exclude)
		for _, at := range []float64{oracle[0].Score, oracle[topN/2-1].Score, oracle[topN-2].Score, 2 * oracle[0].Score} {
			theta, want := thetaAt(at), reaching(oracle, at)
			if got := ix.QueryFrozen(nil, terms, qf, idfs, avg, topN, theta, exclude, nil); !reflect.DeepEqual(got, want) {
				t.Errorf("theta at %g: %v, want %v", at, got, want)
			}
			if theta.Load() != at {
				t.Errorf("theta moved from %g to %g", at, theta.Load())
			}
			checkPoolClean(t)
		}
		var theta Theta
		if got := ix.QueryFrozen(nil, terms, qf, idfs, avg, topN, &theta, exclude, nil); !reflect.DeepEqual(got, oracle) {
			t.Errorf("theta from 0: %v, oracle %v", got, oracle)
		}
		if theta.Load() != oracle[topN-1].Score {
			t.Errorf("theta from 0 raised to %g, want the n-th score %g", theta.Load(), oracle[topN-1].Score)
		}
	}

	// n − 1 units left after exclusion: whatever the excluded ones score,
	// the leg has no n-th best to offer.
	keep := make(map[int]bool)
	for _, r := range all[topN : 2*topN-1] {
		keep[r.Unit] = true
	}
	short := func(u int) bool { return !keep[u] }
	var theta Theta
	if got := ix.QueryFrozen(nil, terms, qf, idfs, avg, topN, &theta, short, nil); !reflect.DeepEqual(got, all[topN:2*topN-1]) {
		t.Errorf("short list: %v, want %v", got, all[topN:2*topN-1])
	}
	if theta.Load() != 0 {
		t.Errorf("a list of %d under depth %d raised theta to %g", topN-1, topN, theta.Load())
	}
}
