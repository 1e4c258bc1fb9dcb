package index

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchCorpus builds a synthetic index with a Zipf-ish term distribution:
// a few very common terms (long posting lists, low pIDF) and a long tail
// of rare ones — the shape that makes max-score pruning pay, and the
// shape real forum segments have.
func benchCorpus(units, vocab int, seed int64) (*Index, []map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(vocab-1))
	ix := New()
	docs := make([][]string, units)
	for u := 0; u < units; u++ {
		n := 20 + rng.Intn(40)
		terms := make([]string, n)
		for i := range terms {
			terms[i] = fmt.Sprintf("t%05d", zipf.Uint64())
		}
		docs[u] = terms
		ix.Add(terms)
	}
	queries := make([]map[string]float64, 64)
	for i := range queries {
		queries[i] = TermFrequencies(docs[rng.Intn(units)])
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

// BenchmarkQueryPrunedVsExhaustive compares the max-score pruned scan
// against the exhaustive reference at growing corpus sizes. Pruned and
// exhaustive return bit-identical results
// (TestPrunedMatchesExhaustiveProperty); this pair shows what the
// pruning buys. The pruned legs lower the size gate so they prune at
// every size — this is the sweep PruneMinUnits is set from. The
// 100 000-unit leg (the size TestPruningHalvesPostingsAt100k counts
// postings at) is skipped under -short.
func BenchmarkQueryPrunedVsExhaustive(b *testing.B) {
	sizes := []int{1000, 4000, 8000, 16000, 100000}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, units := range sizes {
		ix, queries := benchCorpus(units, 2000, 42)
		b.Run(fmt.Sprintf("exhaustive-%d", units), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.QueryExhaustive(queries[i%len(queries)], 10, nil)
			}
		})
		b.Run(fmt.Sprintf("pruned-%d", units), func(b *testing.B) {
			old := PruneMinUnits
			PruneMinUnits = 1
			defer func() { PruneMinUnits = old }()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Query(queries[i%len(queries)], 10, nil)
			}
		})
	}
}
