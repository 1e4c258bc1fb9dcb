package index

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// naiveQuery is the independent Eq 7–9 oracle: a fresh map per call, the
// formulas written out from the raw postings and unit statistics in
// ascending term order — strings sorted here, ids looked up one by one,
// the Eq 7 numerator taken with math.Log, not from the table — and a
// full sort for the ranking. It shares no code with the scan — no
// pooled accumulator, no divisor column, no top-n heap, no term
// resolution — so agreeing with it bit-for-bit is evidence about it.
// Unattached, quiescent indices only.
func naiveQuery(ix *Index, queryTF map[string]float64, topN int, exclude func(unit int) bool) []Result {
	names := make([]string, 0, len(queryTF))
	for t := range queryTF {
		names = append(names, t)
	}
	sort.Strings(names)
	n := len(ix.denoms)
	avgUnique := float64(ix.totalUnique) / float64(n)
	var terms []int32
	var qf, idfs []float64
	for _, t := range names {
		id, pIDF := ix.dict.Lookup(t), 0.0
		if s, ok := ix.slot[id]; ok {
			df := len(postingsAt(ix, s))
			pIDF = math.Log((float64(n-df) + 0.5) / (float64(df) + 0.5))
		}
		terms, qf, idfs = append(terms, id), append(qf, queryTF[t]), append(idfs, pIDF)
	}
	return naiveRank(naiveScores(ix, terms, qf, idfs, avgUnique), topN, exclude)
}

// postingsAt is the oracle's reading of list number s: whatever the
// index's two runs hold, gathered and sorted by unit — it trusts neither
// run's order nor which run a posting was filed under
// (TestSplitRunsAreTheSameIndex holds the runs themselves to a model).
func postingsAt(ix *Index, s int32) []Posting {
	posts := append([]Posting(nil), ix.more[s]...)
	for _, u := range ix.ones[s] {
		posts = append(posts, Posting{Unit: u, TF: 1})
	}
	sort.Slice(posts, func(a, b int) bool { return posts[a].Unit < posts[b].Unit })
	return posts
}

// naiveScores is the oracle's Eq 9 sum for every unit under the supplied
// pIDFs (terms with none, or a non-positive one, contribute nothing) and
// NU average, in the supplied term order. Unit statistics never change
// once added, so a score computed from a grown index is the score any
// earlier scan of that unit under the same factors had to return.
func naiveScores(ix *Index, terms []int32, qf, idfs []float64, avgUnique float64) map[int]float64 {
	scores := make(map[int]float64)
	for i, t := range terms {
		s, ok := ix.slot[t]
		if !ok || idfs[i] <= 0 {
			continue
		}
		for _, p := range postingsAt(ix, s) {
			norm := 1.0
			if ratio := float64(ix.uniques[p.Unit]) / avgUnique; ratio > 1 {
				norm = ratio
			}
			scores[int(p.Unit)] += float64(qf[i] * ((math.Log(float64(p.TF)) + 1) / (ix.denoms[p.Unit] * norm)) * idfs[i])
		}
	}
	return scores
}

// naiveRank is the oracle's ranking: the positive, non-excluded scores
// fully sorted (score descending, unit ascending) and cut at topN.
func naiveRank(scores map[int]float64, topN int, exclude func(unit int) bool) []Result {
	out := []Result{}
	for unit, s := range scores {
		if s > 0 && (exclude == nil || !exclude(unit)) {
			out = append(out, Result{Unit: unit, Score: s})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Unit < out[b].Unit
	})
	if len(out) > topN {
		out = out[:topN]
	}
	return out
}

// thetaAt returns a Theta already at s — a bound some other leg proved.
func thetaAt(s float64) *Theta {
	th := new(Theta)
	th.Raise(s)
	return th
}

// reaching is the head of a ranked list that scores at or above theta:
// what a scan under that Theta must return of it.
func reaching(ranked []Result, theta float64) []Result {
	for i, r := range ranked {
		if r.Score < theta {
			return ranked[:i]
		}
	}
	return ranked
}

// checkAgainstOracle runs one query through every scan entry point —
// Query, QueryFrozen with and without a Theta — and holds each to the
// oracle bit-for-bit.
func checkAgainstOracle(t *testing.T, ix *Index, queryTF map[string]float64, topN int, exclude func(unit int) bool) {
	t.Helper()
	want := naiveQuery(ix, queryTF, topN, exclude)
	if got := ix.Query(queryTF, topN, exclude); !reflect.DeepEqual(got, want) {
		t.Fatalf("Query topN=%d: %v, oracle %v", topN, got, want)
	}
	terms, qf, idfs, avg := frozenArgs(ix, queryTF)
	if got := ix.QueryFrozen(nil, terms, qf, idfs, avg, topN, nil, exclude, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryFrozen topN=%d: %v, oracle %v", topN, got, want)
	}
	if len(want) == 0 {
		return
	}
	// A bound proven by the list itself (its n-th score) loses nothing; a
	// bound in the middle of the list keeps exactly the entries that reach
	// it, in order.
	if got := ix.QueryFrozen(nil, terms, qf, idfs, avg, topN, thetaAt(want[len(want)-1].Score), exclude, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryFrozen theta=n-th: %v, oracle %v", got, want)
	}
	floor := want[len(want)/2].Score
	if got := ix.QueryFrozen(nil, terms, qf, idfs, avg, topN, thetaAt(floor), exclude, nil); !reflect.DeepEqual(got, reaching(want, floor)) {
		t.Fatalf("QueryFrozen theta=%g: %v, oracle %v", floor, got, reaching(want, floor))
	}
}

// checkPoolClean takes the accumulator the pool would hand the next
// probe and verifies the invariant every probe relies on: no cell and no
// touched word is non-zero.
func checkPoolClean(t *testing.T) {
	t.Helper()
	acc := scorePool.Get().(*accumulator)
	defer scorePool.Put(acc)
	for u, c := range acc.cells {
		if c != 0 {
			t.Fatalf("pooled accumulator: stale cell %d = %g", u, c)
		}
	}
	for w, word := range acc.touched {
		if word != 0 {
			t.Fatalf("pooled accumulator: stale touched word %d = %#x", w, word)
		}
	}
}

func TestScansMatchNaiveOracle(t *testing.T) {
	// Probes by the drain they take: dense, bitset.
	drains := map[bool]int{}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		units := 20 + rng.Intn(500)
		docs := randomCorpus(rng, units, 40+rng.Intn(200))
		ix := buildIndex(docs...)
		var exclude func(int) bool
		if trial%3 == 1 {
			exclude = func(u int) bool { return u%3 == 0 }
		}
		for _, topN := range []int{1, 3, 10, units / 4, units} {
			queryTF := TermFrequencies(docs[rng.Intn(units)])
			checkAgainstOracle(t, ix, queryTF, topN, exclude)
			_, visited, _ := probeCost(ix, queryTF, topN, exclude)
			drains[visited == units]++
		}
	}
	if drains[true] < 20 || drains[false] < 20 {
		t.Fatalf("%d dense and %d bitset drains: the corpora were meant to exercise both", drains[true], drains[false])
	}
}

// TestPoolSharedAcrossGrowingIndices is the pool-hygiene property: one
// goroutine — so sync.Pool hands each probe the accumulator the last one
// returned — drives indices of very different sizes through the scan
// while Adds grow them past the capacity (units + 25 %) of whatever
// accumulator last served them. The pool is inspected after both drains
// (drainTop for a sparse probe, drainDense for a dense one;
// TestDensePoolHygiene aims at the latter) — checkAgainstOracle's
// mid-list Theta makes them reject units unoffered, whose cells must be
// zeroed all the same. A stale cell shows as a wrong score or a dirty
// pool; an accumulator shorter than the index it scans panics.
func TestPoolSharedAcrossGrowingIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	docs := randomCorpus(rng, 4000, 150)
	next := 0
	take := func(n int) [][]string {
		d := docs[next : next+n]
		next += n
		return d
	}
	indices := []*Index{buildIndex(take(30)...), buildIndex(take(900)...), buildIndex(take(200)...)}
	for step := 0; step < 150; step++ {
		ix := indices[rng.Intn(len(indices))]
		if n := ix.NumUnits(); rng.Intn(4) == 0 && next+n/2+1 <= len(docs) {
			for _, d := range take(n/2 + 1) { // past the quarter of headroom
				ix.Add(d)
			}
		}
		var exclude func(int) bool
		if step%2 == 1 {
			exclude = func(u int) bool { return u%5 == 0 }
		}
		checkAgainstOracle(t, ix, TermFrequencies(docs[rng.Intn(next)]), 1+rng.Intn(12), exclude)
		checkPoolClean(t)
	}
}

// TestConcurrentScansShareThePool is the -race leg: queriers on a small,
// a large and a growing index draw from the one pool while an adder
// grows the third. Each index has an owner lock of its own, as a
// matcher's cluster index has: the adder takes it to write and the
// queriers to read, so queriers of different indices scan at once and
// those of the third interleave with the adds. Concurrent results cannot
// be compared to a fixed oracle, so they are held to what must hold
// whatever the interleaving (rank order, positive scores, ids inside the
// index); once the adder is done every index is checked against the
// oracle and the pool is clean.
func TestConcurrentScansShareThePool(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	docs := randomCorpus(rng, 1500, 120)
	indices := []*Index{buildIndex(docs[:40]...), buildIndex(docs[40:840]...), buildIndex(docs[840:900]...)}
	owners := make([]sync.RWMutex, len(indices))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range docs[900:] {
			owners[2].Lock()
			indices[2].Add(d)
			owners[2].Unlock()
		}
	}()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix, owner := indices[g%len(indices)], &owners[g%len(indices)]
			for i := 0; i < 150; i++ {
				owner.RLock()
				res := ix.Query(TermFrequencies(docs[(g*150+i)%len(docs)]), 8, nil)
				units := ix.NumUnits()
				owner.RUnlock()
				for j, r := range res {
					if r.Score <= 0 || r.Unit < 0 || r.Unit >= units || (j > 0 && worse(res[j-1], r)) {
						t.Errorf("goroutine %d query %d: bad result list %v", g, i, res)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, ix := range indices {
		checkAgainstOracle(t, ix, TermFrequencies(docs[7]), 8, nil)
	}
	checkPoolClean(t)
}

// TestScanAllocations gates the steady-state probe at one allocation —
// its result slice, none when the caller passes one to append to: the
// divisor column is cached. A frozen probe carrying
// another average finds the column stale with no write lock between, so
// nothing was retired for it to reuse: it allocates two more, the two
// columns in one array and their header, and that is all it costs. The
// first probe after an add rebuilds into the pair the add retired and
// allocates nothing more.
func TestScanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	rng := rand.New(rand.NewSource(41))
	docs := randomCorpus(rng, 600, 120)
	ix := buildIndex(docs...)
	queryTF := TermFrequencies(docs[3])
	terms, qf, idfs, avg := frozenArgs(ix, queryTF)

	if got := testing.AllocsPerRun(200, func() { ix.Query(queryTF, 10, nil) }); got > 1 {
		t.Errorf("Query: %v allocs per run, want at most 1", got)
	}
	stale := avg
	if got := testing.AllocsPerRun(200, func() {
		stale *= 1.001
		ix.QueryFrozen(nil, terms, qf, idfs, stale, 10, nil, nil, nil)
	}); got != 3 {
		t.Errorf("QueryFrozen finding the column stale: %v allocs per run, want 3 (result, columns, header)", got)
	}
	var theta Theta // shared by the runs, as by a probe's legs
	if got := testing.AllocsPerRun(200, func() { ix.QueryFrozen(nil, terms, qf, idfs, avg, 10, &theta, nil, nil) }); got > 1 || theta.Load() == 0 {
		t.Errorf("QueryFrozen under a Theta (now %g): %v allocs per run, want at most 1", theta.Load(), got)
	}
	dst := make([]Result, 0, 10)
	if got := testing.AllocsPerRun(200, func() { dst = ix.QueryFrozen(dst[:0], terms, qf, idfs, avg, 10, nil, nil, nil) }); got != 0 || len(dst) != 10 {
		t.Errorf("QueryFrozen into a reused dst: %v allocs per run and %d results, want none and 10", got, len(dst))
	}
	unique, tf := CountTerms(ix.dict.Terms(), ix.dict.AppendIDs(nil, docs[5]), nil)
	if got := testing.AllocsPerRun(200, func() {
		ix.AddCounted(unique, tf)
		ix.Query(queryTF, 10, nil)
	}); got > 1 {
		t.Errorf("Query after an Add: %v allocs per run, want at most 1 (result; the rebuild reuses the retired columns)", got)
	}
}
