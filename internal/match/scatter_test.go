package match

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/forum"
	"repro/internal/index"
	"repro/internal/topk"
)

// splitForTest partitions a built matcher into n shards with a simple
// modulo route and fresh statistics pools, and replays the route to
// build the global↔local id directory the scatter-gather merge needs —
// the same reconstruction the shard group performs.
func splitForTest(t *testing.T, mr *MR, n int) (shards []*MR, globalIDs [][]int, owner, local []int) {
	t.Helper()
	stats := make([]*index.GlobalStats, mr.NumClusters())
	for i := range stats {
		stats[i] = index.NewGlobalStats()
	}
	route := func(d int) int { return d % n }
	shards, err := mr.Split(n, route, stats)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	globalIDs = make([][]int, n)
	owner = make([]int, mr.NumDocs())
	local = make([]int, mr.NumDocs())
	for d := 0; d < mr.NumDocs(); d++ {
		s := route(d)
		owner[d] = s
		local[d] = len(globalIDs[s])
		globalIDs[s] = append(globalIDs[s], d)
	}
	return shards, globalIDs, owner, local
}

// scatterMatch reconstructs the shard group's scatter-gather query out
// of this package's primitives: probes from the owning shard
// (QuerySegs), per-shard lists at the full unsharded depth
// (QueryClusterLists), a global top-n merge per cluster under the
// deterministic tie-break, the shared trim, and Algorithm 2's summation
// in ascending cluster order.
func scatterMatch(cfg MRConfig, shards []*MR, globalIDs [][]int, owner, local []int, docID, k int) []Result {
	home, lq := owner[docID], local[docID]
	probes := shards[home].QuerySegs(lq)
	n := cfg.ListDepth(k)
	perShard := make([][][]Result, len(shards))
	for s, sh := range shards {
		excl := -1
		if s == home {
			excl = lq
		}
		perShard[s] = sh.QueryClusterLists(probes, n, excl, nil, nil)
	}
	scores := make(map[int]float64)
	for i := range probes {
		col := topk.New(n)
		for s := range shards {
			for _, r := range perShard[s][i] {
				col.Offer(globalIDs[s][r.DocID], r.Score)
			}
		}
		items := col.Results()
		if len(items) == 0 {
			continue
		}
		cut, norm := cfg.TrimParams(items[0].Score)
		for _, it := range items {
			if it.Score < cut {
				break
			}
			scores[it.ID] += it.Score / norm
		}
	}
	return TopKScores(scores, k, docID)
}

// TestScatterGatherMatchesMatch is the in-package half of the sharding
// equivalence proof: the scatter-gather reconstruction must return
// bit-identical scores and the identical ranking to the unsharded
// Match, for every query document and depth probed.
func TestScatterGatherMatchesMatch(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 100, 7)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42})
	shards, globalIDs, owner, local := splitForTest(t, mr, 3)
	cfg := mr.Config()
	for _, q := range []int{0, 7, 33, 66, 99} {
		for _, k := range []int{1, 5, 10} {
			want := mr.Match(q, k)
			got := scatterMatch(cfg, shards, globalIDs, owner, local, q, k)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("doc %d k=%d: scatter %v != unsharded %v", q, k, got, want)
			}
		}
	}
}

// TestScatterGatherMatchesMatchTrimmed repeats the equivalence check
// under threshold selection plus list normalization — the configuration
// where TrimParams does real work, so the merged-then-trimmed list must
// cut and divide exactly as the unsharded trimList does.
func TestScatterGatherMatchesMatchTrimmed(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 80, 11)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42, ScoreThreshold: 0.3, NormalizeLists: true})
	shards, globalIDs, owner, local := splitForTest(t, mr, 2)
	cfg := mr.Config()
	for _, q := range []int{1, 20, 55, 79} {
		want := mr.Match(q, 5)
		got := scatterMatch(cfg, shards, globalIDs, owner, local, q, 5)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("doc %d: scatter %v != unsharded %v", q, got, want)
		}
	}
}

func TestSplitErrors(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 30, 3)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42})
	if _, err := mr.Split(0, func(int) int { return 0 }, nil); err == nil {
		t.Error("Split(0) should fail")
	}
	wrong := make([]*index.GlobalStats, mr.NumClusters()+1)
	for i := range wrong {
		wrong[i] = index.NewGlobalStats()
	}
	if _, err := mr.Split(2, func(int) int { return 0 }, wrong); err == nil {
		t.Error("Split with a mismatched pool count should fail")
	}
	stats := make([]*index.GlobalStats, mr.NumClusters())
	for i := range stats {
		stats[i] = index.NewGlobalStats()
	}
	if _, err := mr.Split(2, func(int) int { return 2 }, stats); err == nil {
		t.Error("out-of-range route should fail")
	}
	for i := range stats {
		stats[i] = index.NewGlobalStats()
	}
	if _, err := mr.Split(2, func(int) int { return -1 }, stats); err == nil {
		t.Error("negative route should fail")
	}
}

// TestAttachGlobalStatsAfterReload exercises the post-load pool
// reconstruction: shards persisted with the plain MR codec carry only
// local state, so reattaching every reloaded shard to fresh pools must
// restore collection-global scoring — proven by re-running the
// equivalence check through the reloaded shards.
func TestAttachGlobalStatsAfterReload(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 60, 5)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42})
	shards, globalIDs, owner, local := splitForTest(t, mr, 2)
	pools := make([]*index.GlobalStats, mr.NumClusters())
	for i := range pools {
		pools[i] = index.NewGlobalStats()
	}
	loaded := make([]*MR, len(shards))
	dict := index.NewDict() // pooled shards count terms by ids of one dictionary
	for s, sh := range shards {
		var buf bytes.Buffer
		if _, err := sh.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo shard %d: %v", s, err)
		}
		ld, err := ReadMR(buf.Bytes(), dict)
		if err != nil {
			t.Fatalf("ReadMR shard %d: %v", s, err)
		}
		if err := ld.AttachGlobalStats(pools); err != nil {
			t.Fatalf("AttachGlobalStats shard %d: %v", s, err)
		}
		loaded[s] = ld
	}
	cfg := mr.Config()
	for _, q := range []int{2, 31, 59} {
		want := mr.Match(q, 5)
		got := scatterMatch(cfg, loaded, globalIDs, owner, local, q, 5)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("doc %d: reloaded scatter %v != unsharded %v", q, got, want)
		}
	}
	if err := loaded[0].AttachGlobalStats(pools[:len(pools)-1]); err == nil {
		t.Error("AttachGlobalStats with a mismatched pool count should fail")
	}
}

func TestQuerySegsUnknownDoc(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 20, 9)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42})
	if got := mr.QuerySegs(-1); got != nil {
		t.Errorf("QuerySegs(-1) = %v, want nil", got)
	}
	if got := mr.QuerySegs(len(tc.docs)); got != nil {
		t.Errorf("QuerySegs(out of range) = %v, want nil", got)
	}
	probes := mr.QuerySegs(0)
	for i := 1; i < len(probes); i++ {
		if probes[i].Cluster <= probes[i-1].Cluster {
			t.Errorf("probes not in ascending cluster order: %d after %d",
				probes[i].Cluster, probes[i-1].Cluster)
		}
	}
	for _, p := range probes {
		if len(p.Terms) != len(p.QF) || len(p.Terms) != len(p.IDF) {
			t.Errorf("cluster %d: misaligned frozen factors", p.Cluster)
		}
	}
}

func TestQueryClusterListsBadCluster(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 20, 9)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42})
	probes := []ClusterQuery{{Cluster: -1}, {Cluster: mr.NumClusters()}}
	lists := mr.QueryClusterLists(probes, 5, -1, nil, nil)
	if len(lists) != 2 || lists[0] != nil || lists[1] != nil {
		t.Errorf("out-of-range clusters should yield nil lists, got %v", lists)
	}
}

// TestExplainDocClusterReconciles checks that the per-shard explain
// half sums back to the served list score bit-for-bit: the term
// products come from the same pool-attached state in the same sorted
// summation order.
func TestExplainDocClusterReconciles(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 60, 13)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42})
	shards, globalIDs, owner, local := splitForTest(t, mr, 2)
	cfg := mr.Config()
	q := 4
	home, lq := owner[q], local[q]
	probes := shards[home].QuerySegs(lq)
	n := cfg.ListDepth(5)
	perShard := make([][][]Result, len(shards))
	for s, sh := range shards {
		excl := -1
		if s == home {
			excl = lq
		}
		perShard[s] = sh.QueryClusterLists(probes, n, excl, nil, nil)
	}
	checked := 0
	for i, p := range probes {
		col := topk.New(n)
		for s := range shards {
			for _, r := range perShard[s][i] {
				col.Offer(globalIDs[s][r.DocID], r.Score)
			}
		}
		for _, it := range col.Results() {
			s, l := owner[it.ID], local[it.ID]
			tcs := shards[s].ExplainDocCluster(l, p, 1)
			if len(tcs) == 0 {
				t.Errorf("doc %d cluster %d: empty breakdown for score %g", it.ID, p.Cluster, it.Score)
				continue
			}
			var sum float64
			for _, c := range tcs {
				sum += c.Contribution
			}
			if sum != it.Score {
				t.Errorf("doc %d cluster %d: breakdown sums to %g, served %g (Δ %g)",
					it.ID, p.Cluster, sum, it.Score, math.Abs(sum-it.Score))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no (doc, cluster) contributions checked")
	}
	if got := shards[0].ExplainDocCluster(-1, ClusterQuery{}, 1); got != nil {
		t.Error("negative doc id should explain to nil")
	}
	if got := shards[home].ExplainDocCluster(lq, ClusterQuery{Cluster: mr.NumClusters()}, 1); got != nil {
		t.Error("cluster without a refined segment should explain to nil")
	}
}

func TestTopKScoresSelection(t *testing.T) {
	scores := map[int]float64{1: 2, 2: 2, 3: -1, 4: 0, 5: 1}
	got := TopKScores(scores, 3, 2)
	want := []Result{{DocID: 1, Score: 2}, {DocID: 5, Score: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopKScores = %v, want %v", got, want)
	}
	if got := TopKScores(map[int]float64{}, 3, -1); len(got) != 0 {
		t.Errorf("TopKScores on empty map = %v", got)
	}
}

func TestConfigAndPendingAccessors(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 20, 9)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42})
	cfg := mr.Config()
	if cfg.NFactor != 2 {
		t.Errorf("Config should return the defaults-applied config, NFactor = %d", cfg.NFactor)
	}
	if got := cfg.ListDepth(5); got != 10 {
		t.Errorf("ListDepth(5) = %d, want 10", got)
	}
	thr := MRConfig{ScoreThreshold: 0.5}
	if got := thr.ListDepth(5); got != 50 {
		t.Errorf("thresholded ListDepth(5) = %d, want 50", got)
	}
	pa := mr.PrepareAdd(tc.docs[0])
	if pa.NumSegments() <= 0 {
		t.Errorf("NumSegments = %d, want > 0", pa.NumSegments())
	}
}
