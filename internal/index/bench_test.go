package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// benchCorpus builds a synthetic index with a Zipf-ish term distribution:
// a few very common terms (long posting lists, low pIDF) and a long tail
// of rare ones — the shape real forum segments have.
func benchCorpus(units, vocab int, seed int64) (*Index, []map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(vocab-1))
	names := make([]string, vocab)
	for v := range names {
		names[v] = fmt.Sprintf("t%05d", v)
	}
	ix := New()
	// Units are kept as term numbers, 4 bytes a token: the query units
	// are drawn only after the last one is generated, and the million-unit
	// leg would hold 40 M string headers otherwise.
	toks, ends := []int32(nil), []int32{0} // unit u is toks[ends[u]:ends[u+1]]
	var terms []string
	for u := 0; u < units; u++ {
		terms = terms[:0]
		for n := 20 + rng.Intn(40); n > 0; n-- {
			v := int32(zipf.Uint64())
			toks, terms = append(toks, v), append(terms, names[v])
		}
		ends = append(ends, int32(len(toks)))
		ix.Add(terms)
	}
	queries := make([]map[string]float64, 64)
	for i := range queries {
		u := rng.Intn(units)
		terms = terms[:0]
		for _, v := range toks[ends[u]:ends[u+1]] {
			terms = append(terms, names[v])
		}
		queries[i] = TermFrequencies(terms)
	}
	return ix, queries
}

// BenchmarkQueryReadOnly measures the read-only (no concurrent adds)
// query path on a mid-size index — the path the former idfCache was
// supposed to help. It pins that computing pIDF directly (one math.Log
// per query term) costs no more than the per-term sync.Map lookups the
// cache spent even when it hit.
func BenchmarkQueryReadOnly(b *testing.B) {
	ix, queries := benchCorpus(5000, 2000, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(queries[i%len(queries)], 10, nil)
	}
}

// BenchmarkNormsRebuild measures one rebuild of the Eq 7/8 divisor
// columns (normsFor) over 9 000 units, the size of the benchmark
// corpus's largest cluster index: fresh with nothing to reuse, as a probe
// under a frozen average of its own builds; afterAdd into the pair a
// write retired, as the first probe after an add builds.
func BenchmarkNormsRebuild(b *testing.B) {
	ix, _ := benchCorpus(9000, 2000, 42)
	avg := liveAvg(ix)
	for _, leg := range []struct {
		name  string
		stale func()
	}{
		{"fresh", func() { ix.norms.Store(nil); ix.spare.Store(nil) }},
		{"afterAdd", ix.retireNorms},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				leg.stale()
				ix.normsFor(avg)
			}
		})
	}
}

// BenchmarkQuerySparseProbe measures the probe the dense drain must not
// tax: the three rarest terms of each query unit against the 32 000-unit
// corpus — a few hundred postings into 32 000 cells, so the probe marks
// what it writes and drains by the bitset (denseProbe;
// TestDrainCostFollowsTheProbe pins the cells read, this shows the time,
// which must stay in the microseconds where walking the cells would
// cost tens of them).
func BenchmarkQuerySparseProbe(b *testing.B) {
	ix, queries := benchCorpus(32000, 2000, 42)
	for i, q := range queries {
		names := make([]string, 0, len(q))
		for t := range q {
			names = append(names, t)
		}
		sort.Slice(names, func(a, b int) bool {
			if da, db := ix.DocFreq(names[a]), ix.DocFreq(names[b]); da != db {
				return da < db
			}
			return names[a] < names[b]
		})
		rare := make(map[string]float64, 3)
		for _, t := range names[:min(3, len(names))] {
			rare[t] = q[t]
		}
		queries[i] = rare
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(queries[i%len(queries)], 10, nil)
	}
}
