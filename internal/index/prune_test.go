package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// withPruneGate lowers the pruning size gate so small test corpora take
// the max-score path, restoring it on cleanup. Tests in this repo never
// run in parallel, so mutating the package-level knob is safe.
func withPruneGate(t *testing.T, minUnits int) {
	t.Helper()
	old := PruneMinUnits
	PruneMinUnits = minUnits
	t.Cleanup(func() { PruneMinUnits = old })
}

// randomCorpus builds units with a skewed vocabulary: a handful of
// frequent terms (long posting lists, low pIDF) plus a rare tail — the
// distribution where max-score pruning actually skips work, and the
// regime where a bound or threshold bug would surface as a ranking
// difference.
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

// TestPrunedMatchesExhaustiveProperty is the tentpole equivalence
// property: across random corpora, query shapes, depths, and exclusion
// predicates, the pruned scan returns the exact result slice — same
// units, same order, bit-identical float scores — as the exhaustive
// reference scorer.
func TestPrunedMatchesExhaustiveProperty(t *testing.T) {
	withPruneGate(t, 1)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		units := 20 + rng.Intn(400)
		docs := randomCorpus(rng, units, 40+rng.Intn(200))
		ix := New()
		for _, d := range docs {
			ix.Add(d)
		}
		var exclude func(int) bool
		if trial%3 == 1 {
			exclude = func(u int) bool { return u%2 == 0 }
		}
		for _, topN := range []int{1, 2, 5, 10, units / pruneMinFanout} {
			if topN < 1 {
				continue
			}
			queryTF := TermFrequencies(docs[rng.Intn(units)])
			want := ix.QueryExhaustive(queryTF, topN, exclude)
			got := ix.Query(queryTF, topN, exclude)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d units=%d topN=%d: pruned %v != exhaustive %v", trial, units, topN, got, want)
			}
		}
	}
}

// TestPrunedMatchesExhaustiveInterleaved interleaves adds and queries:
// bounds maintained incrementally mid-stream must stay valid after
// every add (they only ever loosen — a stale-looser bound costs scan
// work, a stale-tighter one would corrupt rankings).
func TestPrunedMatchesExhaustiveInterleaved(t *testing.T) {
	withPruneGate(t, 1)
	rng := rand.New(rand.NewSource(11))
	docs := randomCorpus(rng, 300, 120)
	ix := New()
	for i, d := range docs {
		ix.Add(d)
		if i < 5 || i%7 != 0 {
			continue
		}
		queryTF := TermFrequencies(docs[rng.Intn(i+1)])
		want := ix.QueryExhaustive(queryTF, 5, nil)
		got := ix.Query(queryTF, 5, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d adds: pruned %v != exhaustive %v", i+1, got, want)
		}
	}
}

// TestPruningHalvesPostingsAt100k is the other half of the pruning
// contract — that it pays — stated without a clock: on the 100 000-unit
// Zipf corpus of BenchmarkQueryPrunedVsExhaustive, queries 0–31 at
// k = 10 must touch at least 2× fewer postings with the size gate forced
// down to 1 (every scan pruned — the default gate no longer engages at
// this size) than with it raised past the corpus, and return the same
// results. The counts are deterministic, so a bound
// ordering or early termination that stops cutting shows up as a ratio,
// where wall-clock time on the same code has read 1.3× to 1.8×.
func TestPruningHalvesPostingsAt100k(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100 000-unit index")
	}
	obs.Enable() // index.scan.postings only counts while obs is on
	t.Cleanup(obs.Disable)
	const units, runs, topK = 100000, 32, 10
	ix, queries := benchCorpus(units, 2000, 42)
	leg := func(minUnits int) (results [][]Result, postingsPerQuery int64) {
		withPruneGate(t, minUnits)
		before := ctrScanPostings.Value()
		for _, q := range queries[:runs] {
			results = append(results, ix.Query(q, topK, nil))
		}
		return results, (ctrScanPostings.Value() - before) / runs
	}
	want, exhaustive := leg(units + 1)
	got, pruned := leg(1)
	t.Logf("postings per query at %d units: exhaustive %d, pruned %d", units, exhaustive, pruned)
	if exhaustive < 2*pruned {
		t.Errorf("pruned scan touches %d postings per query, exhaustive %d: need >= 2x fewer (last known values 76792 and 195559, 2.55x) — the bound ordering or early termination has regressed",
			pruned, exhaustive)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("pruned and exhaustive legs returned different results")
	}
}

// TestBoundDominatesWeights pins the safety invariant everything rests
// on: after an arbitrary Add sequence, every posting list's slacked
// bound is at least the actual Eq 7/8 weight of every posting in it,
// evaluated at the live collection average.
func TestBoundDominatesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	docs := randomCorpus(rng, 250, 90)
	ix := New()
	for _, d := range docs {
		ix.Add(d)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	avg := ix.avgUniqueLocked()
	checked := 0
	for id, s := range ix.slot {
		b := ix.bounds[s].bound(avg)
		for _, p := range postingsAt(ix, s) {
			if w := ix.weightLocked(p, avg); w > b {
				t.Fatalf("term %q unit %d: weight %g exceeds bound %g", ix.dict.Terms()[id], p.Unit, w, b)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no postings checked")
	}
}

// TestBoundsRoundTrip pins that bounds rebuilt on snapshot load are
// bitwise equal to the bounds the writer maintained incrementally.
// Equality must be exact: the rebuild evaluates Add's expressions over
// persisted operands, so any drift means the two paths diverged.
func TestBoundsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	docs := randomCorpus(rng, 150, 70)
	ix := New()
	for _, d := range docs {
		ix.Add(d)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("encoding: %v", err)
	}
	loaded := New()
	if err := loaded.Load(buf.Bytes()); err != nil {
		t.Fatalf("loading: %v", err)
	}
	if len(loaded.bounds) != len(ix.bounds) {
		t.Fatalf("%d rebuilt bounds, %d incremental", len(loaded.bounds), len(ix.bounds))
	}
	// The two indices number their lists differently (arrival order vs
	// the file's) and intern into different dictionaries: go by term.
	for id, s := range ix.slot {
		term, want := ix.dict.Terms()[id], ix.bounds[s]
		if got := loaded.bounds[loaded.slot[loaded.dict.Lookup(term)]]; got != want {
			t.Errorf("term %q rebuilt bound %+v != incremental %+v", term, got, want)
		}
	}
}

// TestQueryFrozenFloor pins what a preset Theta means to the max-score
// scan: a bound equal to the true n-th best score must not lose any of
// the top n (candidates at the bound survive — they are merge-relevant
// tie-break material), while a bound above the best score promises
// nothing but exact scores in rank order. Both shapes run with the
// pruned path engaged.
func TestQueryFrozenFloor(t *testing.T) {
	withPruneGate(t, 1)
	rng := rand.New(rand.NewSource(53))
	docs := randomCorpus(rng, 200, 80)
	ix := New()
	for _, d := range docs {
		ix.Add(d)
	}
	queryTF := TermFrequencies(docs[17])
	terms, qf, idfs, avg := frozenArgs(ix, queryTF)
	const topN = 8
	want := ix.QueryExhaustive(queryTF, topN, nil)
	if len(want) < topN {
		t.Fatalf("need at least %d results, got %d", topN, len(want))
	}
	got := ix.QueryFrozen(terms, qf, idfs, avg, topN, thetaAt(want[topN-1].Score), nil, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("theta at n-th score: %v != unbounded %v", got, want)
	}
	// From no bound, the scan proves one: its n-th exact score.
	var proved Theta
	if got := ix.QueryFrozen(terms, qf, idfs, avg, topN, &proved, nil, nil); !reflect.DeepEqual(got, want) || proved.Load() != want[topN-1].Score {
		t.Errorf("theta from 0: raised to %g, want %g; %v != unbounded %v", proved.Load(), want[topN-1].Score, got, want)
	}
	// A bound above every score promises nothing about what is returned —
	// only that whatever is must carry exact scores in rank order, i.e.
	// appear in the exhaustive list at matching positions relative to
	// each other. (The scan may legally return entries below the bound;
	// the merge cuts them.)
	high := ix.QueryFrozen(terms, qf, idfs, avg, topN, thetaAt(want[0].Score*2), nil, nil)
	full := ix.QueryExhaustive(queryTF, len(docs), nil)
	pos := 0
	for _, r := range high {
		for pos < len(full) && full[pos] != r {
			pos++
		}
		if pos == len(full) {
			t.Errorf("bounded result %v is not an order-preserving subset of the exhaustive ranking", high)
			break
		}
		pos++
	}
}
