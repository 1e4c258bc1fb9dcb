package shard

import (
	"fmt"
	"testing"

	"repro/internal/forum"
	"repro/internal/index"
	"repro/internal/match"
)

// TestShardPrunedEquivalence re-proves the package's equivalence
// guarantee with the max-score scan forced on: at every shard count the
// scatter legs prune — each seeding its threshold from the probe's
// shared index.Theta and raising it with its n-th exact score — and the
// merged ranking must still be bit-identical to the unsharded matcher, which
// itself is bit-identical to exhaustive scoring (proven in
// internal/index and internal/match). Concurrent-add interleavings are
// covered by TestGroupConcurrentAddQuery, which also runs pruned once
// the shards outgrow the default gate.
func TestShardPrunedEquivalence(t *testing.T) {
	old := index.PruneMinUnits
	index.PruneMinUnits = 1
	t.Cleanup(func() { index.PruneMinUnits = old })

	docs := genDocs(t, forum.TechSupport, 200, 42)
	extra := genDocs(t, forum.TechSupport, 224, 42)[200:]
	for _, ns := range []int{1, 2, 4, 8} {
		mr := match.NewMR("MR", docs, match.MRConfig{Seed: 7})
		g, err := NewGroup(mr, ns, 42)
		if err != nil {
			t.Fatalf("NewGroup(%d): %v", ns, err)
		}
		for d := 0; d < mr.NumDocs(); d++ {
			for _, k := range []int{1, 5} {
				sameResults(t, fmt.Sprintf("pruned shards=%d doc=%d k=%d", ns, d, k),
					mr.Match(d, k), g.Match(d, k))
			}
		}
		// Adds shift the statistics pool and every list bound; the thetas
		// must stay conservative against the moved collection too.
		for _, doc := range extra {
			mr.Add(doc)
			g.Add(doc)
		}
		for d := 0; d < mr.NumDocs(); d += 5 {
			sameResults(t, fmt.Sprintf("pruned post-add shards=%d doc=%d", ns, d),
				mr.Match(d, 5), g.Match(d, 5))
		}
	}
}
