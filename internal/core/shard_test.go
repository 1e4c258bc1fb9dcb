package core

import (
	"bytes"
	"testing"

	"repro/internal/forum"
)

// Sharded pipeline coverage at the public API: Build-time validation and
// directory persistence. That a sharded pipeline ranks as the unsharded
// one does, built or loaded, before and after adds, is internal/serve's
// model test (TestEnginesMatchModel); that its shard counts add up to
// its documents, the history test's (TestHistoriesMatchModel).

func goldenTexts(t *testing.T, n int) []string {
	t.Helper()
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: n, Seed: 77})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	return texts
}

// TestShardedPipelinePersistence: a sharded pipeline saves as one
// snapshot, through WriteTo and through WriteShardDir alike, and loads
// back with its shard count, method and build statistics — the phase
// timings included.
func TestShardedPipelinePersistence(t *testing.T) {
	texts := goldenTexts(t, 100)
	sharded, err := Build(texts, Config{Seed: 9, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sharded.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sharded.WriteShardDir(dir); err != nil {
		t.Fatal(err)
	}
	fromDir, err := ReadShardDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := ReadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, loaded := range map[string]*Pipeline{"WriteTo": fromStream, "WriteShardDir": fromDir} {
		if loaded.Shards() != 2 || loaded.Method() != sharded.Method() {
			t.Fatalf("%s: loaded Shards/Method = %d/%q", name, loaded.Shards(), loaded.Method())
		}
		if loaded.Stats() != sharded.Stats() {
			t.Errorf("%s: loaded stats %+v, built %+v", name, loaded.Stats(), sharded.Stats())
		}
		// Loaded pipelines keep accepting adds.
		if _, err := loaded.Add(texts[0]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardedBuildValidation(t *testing.T) {
	texts := goldenTexts(t, 30)
	// Shards: 1 serves unsharded; a one-shard group is reachable only
	// through a fleet coordinator.
	p, err := Build(texts, Config{Seed: 9, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 2 {
		t.Errorf("Shards() = %d", p.Shards())
	}
}

// TestNumSegmentsAfterAdds: the segment count describes the collection,
// adds included, whatever the topology. Unsharded and 4-shard pipelines,
// and each reloaded from its snapshot, report the sum of the
// per-document counts before refinement — one number for all four.
func TestNumSegmentsAfterAdds(t *testing.T) {
	texts := goldenTexts(t, 100)
	var pipelines []*Pipeline
	for _, shards := range []int{0, 4} {
		p, err := Build(texts[:80], Config{Seed: 7, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range texts[80:] {
			if _, err := p.Add(text); err != nil {
				t.Fatal(err)
			}
		}
		var reloaded *Pipeline
		if dir := t.TempDir(); shards > 0 {
			if err = p.WriteShardDir(dir); err == nil {
				reloaded, err = ReadShardDir(dir)
			}
		} else {
			var buf bytes.Buffer
			if _, err = p.WriteTo(&buf); err == nil {
				reloaded, err = ReadPipeline(&buf)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		pipelines = append(pipelines, p, reloaded)
	}
	want := -1
	for i, p := range pipelines {
		before, _ := p.SegmentCounts()
		sum := 0
		for _, c := range before {
			sum += c
		}
		if want < 0 {
			want = sum
		}
		if got := p.Stats().NumSegments; got != sum || sum != want {
			name := []string{"unsharded", "unsharded reloaded", "4-shard", "4-shard reloaded"}[i]
			t.Errorf("%s: Stats().NumSegments = %d, its counts sum to %d, the unsharded pipeline's to %d", name, got, sum, want)
		}
	}
}
