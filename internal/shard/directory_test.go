package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/match"
)

// refMerge is Directory.Merge written the obvious way: per probe, every
// answering shard's list mapped to global ids (unregistered local ids
// dropped), concatenated, sorted under match.Result.Before, cut to n,
// then summed in order.
func refMerge(d *Directory, clusters []int, n int, perShard [][][]match.Result) ([]MergedList, map[int]float64) {
	scores := make(map[int]float64)
	lists := make([]MergedList, len(clusters))
	for i, c := range clusters {
		items := []match.Result{}
		for s, answered := range perShard {
			if answered == nil {
				continue
			}
			for _, r := range answered[i] {
				if r.DocID < len(d.global[s]) {
					items = append(items, match.Result{DocID: int(d.global[s][r.DocID]), Score: r.Score})
				}
			}
		}
		sort.Slice(items, func(a, b int) bool { return items[a].Before(items[b]) })
		items = items[:min(n, len(items))]
		for _, r := range items {
			scores[r.DocID] += r.Score
		}
		lists[i] = MergedList{Cluster: c, Items: items}
	}
	return lists, scores
}

// randomLists is one shard's answer to probes: per probe up to n distinct
// local ids — some past the shard's registered count, as a commit not
// yet registered leaves them — scored from a small set so ties abound,
// best first as a scan returns them.
func randomLists(rng *rand.Rand, probes, n, registered int) [][]match.Result {
	scores := []float64{0.25, 0.5, 0.75, 1, 1.5}
	out := make([][]match.Result, probes)
	for i := range out {
		ids := rng.Perm(registered + 3)[:min(rng.Intn(n+1), registered+3)]
		l := make([]match.Result, len(ids))
		for j, id := range ids {
			l[j] = match.Result{DocID: id, Score: scores[rng.Intn(len(scores))]}
		}
		sort.Slice(l, func(a, b int) bool { return l[a].Before(l[b]) })
		out[i] = l
	}
	return out
}

// TestMergeMatchesReference holds the k-way merge to refMerge at 1, 2, 4
// and 8 shards: ties within and across shards, shards that did not
// answer, and ids not registered yet. The merged lists must be equal and
// the Algorithm 2 sums equal bit for bit.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ns := range []int{1, 2, 4, 8} {
		d := NewDirectory(42, ns)
		d.Grow(60)
		docs := d.ShardDocs()
		for trial := 0; trial < 300; trial++ {
			probes, n := 1+rng.Intn(5), 1+rng.Intn(12)
			clusters := make([]int, probes)
			for i := range clusters {
				clusters[i] = 2*i + rng.Intn(2)
			}
			perShard := make([][][]match.Result, ns)
			for s := range perShard {
				if ns == 1 || rng.Intn(4) > 0 {
					perShard[s] = randomLists(rng, probes, n, docs[s])
				}
			}
			ctx := fmt.Sprintf("shards=%d trial=%d n=%d", ns, trial, n)
			gotLists, gotScores := d.Merge(clusters, n, perShard, nil)
			wantLists, wantScores := refMerge(d, clusters, n, perShard)
			if !reflect.DeepEqual(gotLists, wantLists) {
				t.Fatalf("%s: merged %v, want %v\ninput %v", ctx, gotLists, wantLists, perShard)
			}
			if !reflect.DeepEqual(gotScores, wantScores) {
				t.Fatalf("%s: sums %v, want %v", ctx, gotScores, wantScores)
			}
		}
	}
}
