package index

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// checkNormsMatchWeight holds the columns built for avg to the
// definition: for every posting, logTF / norm[unit] is the float64
// weight returns, and for every unit — whether or not a TF = 1 posting
// names it — inv[unit] is weight with logTF(1); for a unit without
// terms, which no posting names, both are weight's +0.
func checkNormsMatchWeight(t *testing.T, ix *Index, avg float64) {
	t.Helper()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cols := ix.normsLocked(avg)
	norm, inv := cols.norm, cols.inv
	if len(norm) != len(ix.denoms) || len(inv) != len(ix.denoms) {
		t.Fatalf("avg %g: columns cover %d and %d units of %d", avg, len(norm), len(inv), len(ix.denoms))
	}
	for s := range ix.ones {
		for _, p := range postingsAt(ix, int32(s)) {
			got, want := logTF(p.TF)/norm[p.Unit], ix.weightLocked(p, avg)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("avg %g unit %d tf %d: logTF/norm = %x, weight = %x", avg, p.Unit, p.TF, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	for u, d := range ix.denoms {
		want := weight(d, ix.uniques[u], logTF(1), avg)
		if got := inv[u]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("avg %g unit %d: inv = %x, weight at TF 1 = %x", avg, u, math.Float64bits(got), math.Float64bits(want))
		}
		if got := logTF(1) / norm[u]; d == 0 && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("avg %g empty unit %d: logTF/norm = %x, weight = %x", avg, u, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestNormColumnMatchesWeight is the columns' property test: over random
// Add and WriteTo→Load sequences, under averages below, at and above
// every unit's unique-term count — zero and the live average among them
// — the TF > 1 kernel's quotient and the ones kernel's inv entry are the
// Eq 7/8 weight bit for bit.
func TestNormColumnMatchesWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		ix := New()
		for step, steps := 0, 3+rng.Intn(4); step < steps; step++ {
			for _, d := range randomCorpus(rng, 1+rng.Intn(60), 20+rng.Intn(80)) {
				if rng.Intn(4) == 0 {
					d = append(d, d...) // term frequencies above one
				}
				ix.Add(d)
			}
			ix.Add(nil) // a unit without terms: denominator 0
			if rng.Intn(2) == 0 {
				var buf bytes.Buffer
				if _, err := ix.WriteTo(&buf); err != nil {
					t.Fatalf("encoding: %v", err)
				}
				ix = New()
				if err := ix.Load(buf.Bytes()); err != nil {
					t.Fatalf("loading: %v", err)
				}
			}
			ix.mu.RLock()
			avgs := []float64{0, ix.avgUniqueLocked()}
			for _, c := range ix.uniques {
				avgs = append(avgs, float64(c)-0.5, float64(c), float64(c)+0.5)
			}
			ix.mu.RUnlock()
			for _, avg := range avgs {
				checkNormsMatchWeight(t, ix, avg)
			}
		}
	}
}

// TestNormColumnValidity pins the cache rule: the column is reused while
// the average and the unit count stand, and rebuilt — never patched —
// when either moves.
func TestNormColumnValidity(t *testing.T) {
	ix := buildIndex([]string{"a", "b"}, []string{"a", "c", "d"}, []string{"b"})
	column := func(avg float64) []float64 {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		return ix.normsLocked(avg).norm
	}
	first := column(2)
	if again := column(2); &again[0] != &first[0] {
		t.Error("same average, same units: the column was rebuilt")
	}
	if other := column(1.5); &other[0] == &first[0] {
		t.Error("another average was served the cached column")
	}
	back := column(2)
	if !reflect.DeepEqual(back, first) {
		t.Errorf("rebuilt column %v differs from the first %v", back, first)
	}
	ix.Add([]string{"a", "e"})
	if grown := column(2); len(grown) != 4 {
		t.Errorf("after an add the column covers %d units, want 4", len(grown))
	}
	if len(back) != 3 {
		t.Errorf("a published column changed length: %d", len(back))
	}
}

// TestFrozenAveragesRaceAdd is the columns' -race leg: two goroutines
// scan one index through QueryFrozen under different frozen averages —
// each finds the other's pair of columns and replaces it; the corpus
// repeats terms within a unit, so both kernels run and both norm and inv
// are read — while a third Adds, so the unit count moves under both. Every list is then held to the oracle
// (naiveScores) under the average it was asked with: exact scores in rank order, and
// no unit that was certainly visible (added before the scan began)
// outranking the list's tail without being in it.
func TestFrozenAveragesRaceAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	docs := randomCorpus(rng, 700, 60)
	ix := buildIndex(docs[:300]...)
	const topN = 8
	terms, qf, idfs, avg := frozenArgs(ix, TermFrequencies(docs[5]))
	type scan struct {
		res           []Result
		before, after int
	}
	averages := []float64{avg, avg * 0.6}
	scans := make([][]scan, len(averages))
	// One add per scan: a querier hands the adder a tick after each scan
	// and goes on to the next while the unit is added, so the three overlap
	// whatever the scheduler and the processor count.
	late := docs[300:]
	tick := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range late {
			<-tick
			ix.Add(d)
		}
	}()
	for g := range averages {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(late)/len(averages); i++ {
				before := ix.NumUnits()
				res := ix.QueryFrozen(terms, qf, idfs, averages[g], topN, nil, nil, nil)
				scans[g] = append(scans[g], scan{res, before, ix.NumUnits()})
				tick <- struct{}{}
			}
		}(g)
	}
	wg.Wait()
	for g, a := range averages {
		want := naiveScores(ix, terms, qf, idfs, a)
		for i, sc := range scans[g] {
			in := make(map[int]bool, len(sc.res))
			for j, r := range sc.res {
				in[r.Unit] = true
				if r.Unit >= sc.after || math.Float64bits(r.Score) != math.Float64bits(want[r.Unit]) || (j > 0 && worse(sc.res[j-1], r)) {
					t.Fatalf("average %g scan %d: result %d of %v: oracle score %g, %d units visible", a, i, j, sc.res, want[r.Unit], sc.after)
				}
			}
			for u := 0; u < sc.before; u++ {
				r := Result{Unit: u, Score: want[u]}
				if r.Score > 0 && !in[u] && (len(sc.res) < topN || worse(sc.res[len(sc.res)-1], r)) {
					t.Fatalf("average %g scan %d: %v missed from %v", a, i, r, sc.res)
				}
			}
		}
	}
	// Quiescent again: the same two averages, now against the full oracle.
	for _, a := range averages {
		want := naiveRank(naiveScores(ix, terms, qf, idfs, a), topN, nil)
		if got := ix.QueryFrozen(terms, qf, idfs, a, topN, nil, nil, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("average %g after the adds: %v, oracle %v", a, got, want)
		}
	}
	checkPoolClean(t)
}

// TestTopNTiesAtTheCut pins the scan's selection where the
// fused drain could get it wrong: equal scores across the n-th place.
// The drain's reject is strict (a score equal to the heap root's goes on
// to offerResult), so among equals the ascending unit wins — with a
// better unit arriving after the heap filled, with the cut inside the
// tie, and with tied units excluded.
func TestTopNTiesAtTheCut(t *testing.T) {
	var docs [][]string
	for u := 0; u < 6; u++ {
		docs = append(docs, []string{"tie", "pad"}) // units 0–5: one score
	}
	docs = append(docs, []string{"tie"}) // unit 6: shorter, scores higher
	for u := 0; u < 20; u++ {
		docs = append(docs, []string{"pad", "other"}) // keeps pIDF(tie) positive
	}
	ix := buildIndex(docs...)
	q := TermFrequencies([]string{"tie"})
	units := func(res []Result) (out []int) {
		for _, r := range res {
			out = append(out, r.Unit)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		topN    int
		exclude func(int) bool
		want    []int
	}{
		{"cut inside the tie", 3, nil, []int{6, 0, 1}},
		{"tie fills the list", 7, nil, []int{6, 0, 1, 2, 3, 4, 5}},
		{"one place", 1, nil, []int{6}},
		{"tied units excluded", 3, func(u int) bool { return u == 0 || u == 2 }, []int{6, 1, 3}},
		{"best excluded", 2, func(u int) bool { return u == 6 }, []int{0, 1}},
	} {
		got := ix.Query(q, tc.topN, tc.exclude)
		if !reflect.DeepEqual(units(got), tc.want) {
			t.Errorf("%s: units %v, want %v", tc.name, units(got), tc.want)
		}
		if want := naiveQuery(ix, q, tc.topN, tc.exclude); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v, oracle %v", tc.name, got, want)
		}
	}
	if res := ix.Query(q, 7, nil); res[1].Score != res[6].Score || res[0].Score <= res[1].Score {
		t.Fatalf("fixture does not tie: %v", res)
	}
}
