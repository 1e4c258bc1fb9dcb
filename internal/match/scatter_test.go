package match

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/forum"
	"repro/internal/index"
)

// splitInTwo partitions a built matcher into two shards, even and odd
// document ids, attached to fresh statistics pools: document d is shard
// d%2's local document d/2.
func splitInTwo(t *testing.T, mr *MR) []*MR {
	t.Helper()
	shards, err := mr.Split(2, func(d int) int { return d % 2 }, newPools(mr.NumClusters()))
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	return shards
}

func newPools(n int) []*index.GlobalStats {
	pools := make([]*index.GlobalStats, n)
	for i := range pools {
		pools[i] = index.NewGlobalStats()
	}
	return pools
}

func TestSplitErrors(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 30, 3)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42})
	if _, err := mr.Split(0, func(int) int { return 0 }, nil); err == nil {
		t.Error("Split(0) should fail")
	}
	if _, err := mr.Split(2, func(int) int { return 0 }, newPools(mr.NumClusters()+1)); err == nil {
		t.Error("Split with a mismatched pool count should fail")
	}
	if _, err := mr.Split(2, func(int) int { return 2 }, newPools(mr.NumClusters())); err == nil {
		t.Error("out-of-range route should fail")
	}
	if _, err := mr.Split(2, func(int) int { return -1 }, newPools(mr.NumClusters())); err == nil {
		t.Error("negative route should fail")
	}
}

// TestAttachGlobalStatsAfterReload exercises the post-load pool
// reconstruction: shards persisted with the plain MR codec carry only
// local state, so reattaching every reloaded shard to fresh pools must
// restore the collection-global statistics — the pIDFs and NU averages
// every probe freezes are the split matcher's again.
func TestAttachGlobalStatsAfterReload(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 60, 5)
	mr := NewMR("MR", tc.docs, MRConfig{Seed: 42})
	shards := splitInTwo(t, mr)
	pools := newPools(mr.NumClusters())
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
	for _, q := range []int{2, 31, 59} {
		want, got := shards[q%2].QuerySegs(q/2), loaded[q%2].QuerySegs(q/2)
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("doc %d: %d probes reloaded, %d split", q, len(got), len(want))
		}
		for i := range want {
			if got[i].AvgUnique != want[i].AvgUnique || !reflect.DeepEqual(got[i].IDF, want[i].IDF) {
				t.Errorf("doc %d cluster %d: reloaded factors %v/%v, split %v/%v",
					q, want[i].Cluster, got[i].AvgUnique, got[i].IDF, want[i].AvgUnique, want[i].IDF)
			}
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
	if mr.ExplainDocCluster(-1, ClusterQuery{}) != nil || mr.ExplainDocCluster(0, probes[1]) != nil {
		t.Error("a negative document or an out-of-range cluster should explain to nil")
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
	if cfg := mr.Config(); cfg.Seed != 42 || cfg.ListDepth(5) != 10 {
		t.Errorf("Config: Seed %d, ListDepth(5) %d, want 42 and 10", cfg.Seed, cfg.ListDepth(5))
	}
	pa := mr.PrepareAdd(tc.docs[0])
	if pa.NumSegments() <= 0 {
		t.Errorf("NumSegments = %d, want > 0", pa.NumSegments())
	}
}
