package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
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

// liveAvg is the NU average a probe of ix resolves now.
func liveAvg(ix *Index) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.avgUniqueLocked()
}

// TestNormColumnMatchesWeight is the columns' property test: over random
// Add and WriteTo→Load sequences, under averages below, at and above
// every unit's unique-term count — the live average first, and zero —
// the TF > 1 kernel's quotient and the ones kernel's inv entry are the
// Eq 7/8 weight bit for bit. Every step adds a unit at or above the NU
// table's bound (nu's fallback) and ends with Add → probe, a rebuild into
// the retired pair. In half the trials a reload goes into the index
// itself, probed at the live average, and brings as many units under that
// average with every term frequency doubled: a snapshot the cached pair's
// key cannot tell from the units it was built for.
func TestNormColumnMatchesWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		ix := New()
		var units [][]string // what ix holds, unit by unit
		add := func(d []string) {
			ix.Add(d)
			units = append(units, d)
		}
		for step, steps := 0, 3+rng.Intn(4); step < steps; step++ {
			for _, d := range randomCorpus(rng, 1+rng.Intn(60), 20+rng.Intn(80)) {
				if rng.Intn(4) == 0 {
					d = append(d, d...) // term frequencies above one
				}
				add(d)
			}
			add(nil) // a unit without terms: denominator 0
			var long []string
			for k := 0; k < nuTable+rng.Intn(8); k++ {
				long = append(long, fmt.Sprintf("long%03d", k))
			}
			add(long)
			if rng.Intn(2) == 0 {
				from, into := ix, New()
				if trial%2 == 1 {
					checkNormsMatchWeight(t, ix, liveAvg(ix))
					for i, d := range units {
						units[i] = append(d, d...)
					}
					from, into = buildIndex(units...), ix
				}
				var buf bytes.Buffer
				if _, err := from.WriteTo(&buf); err != nil {
					t.Fatalf("encoding: %v", err)
				}
				if err := into.Load(buf.Bytes()); err != nil {
					t.Fatalf("loading: %v", err)
				}
				ix = into
			}
			ix.mu.RLock()
			avgs := []float64{ix.avgUniqueLocked(), 0}
			for _, c := range ix.uniques {
				avgs = append(avgs, float64(c)-0.5, float64(c), float64(c)+0.5)
			}
			ix.mu.RUnlock()
			for _, avg := range avgs {
				checkNormsMatchWeight(t, ix, avg)
			}
			add(randomCorpus(rng, 1, 50)[0])
			checkNormsMatchWeight(t, ix, liveAvg(ix))
		}
	}
}

// TestNormColumnValidity pins the cache rule and the recycling: the
// column is reused while the average and the unit count stand, and
// rebuilt when either moves — after an add into the storage the add
// retired, and without one into storage of its own, since a probe under
// the same read lock may still be scanning the pair it replaces.
func TestNormColumnValidity(t *testing.T) {
	var docs [][]string
	for u := 0; u < 8; u++ {
		docs = append(docs, []string{"a", "b"}, []string{"a", "c", "d"})
	}
	ix := buildIndex(docs...)
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
		t.Error("another average shares the cached column's storage")
	}
	back := column(2)
	if !reflect.DeepEqual(back, first) {
		t.Errorf("rebuilt column %v differs from the first %v", back, first)
	}
	ix.Add([]string{"a", "e"})
	grown := column(2)
	if len(grown) != len(docs)+1 {
		t.Errorf("after an add the column covers %d units, want %d", len(grown), len(docs)+1)
	}
	if &grown[0] != &back[0] {
		t.Error("the rebuild after an add did not reuse the retired column")
	}
}

// TestNormsRebuildCounters runs 200 Add-then-probe cycles on one index:
// every probe rebuilds (index.norms.build), and only the first build and
// one growth past the headroom allocate (index.norms.new).
func TestNormsRebuildCounters(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	rng := rand.New(rand.NewSource(71))
	docs := randomCorpus(rng, 800, 120)
	ix := buildIndex(docs[:600]...)
	q := TermFrequencies(docs[0])
	build, fresh := ctrNormsBuild.Value(), ctrNormsNew.Value()
	ix.Query(q, 10, nil)
	for _, d := range docs[600:] {
		ix.Add(d)
		ix.Query(q, 10, nil)
	}
	if got := ctrNormsBuild.Value() - build; got != 201 {
		t.Errorf("index.norms.build moved by %d over 201 stale probes", got)
	}
	if got := ctrNormsNew.Value() - fresh; got > 2 {
		t.Errorf("index.norms.new moved by %d, want at most 2: the first build and one growth", got)
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
				res := ix.QueryFrozen(nil, terms, qf, idfs, averages[g], topN, nil, nil, nil)
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
		if got := ix.QueryFrozen(nil, terms, qf, idfs, a, topN, nil, nil, nil); !reflect.DeepEqual(got, want) {
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
