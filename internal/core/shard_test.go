package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/forum"
)

// Sharded pipeline coverage at the public API: Build-time validation,
// query/add equivalence with the unsharded pipeline, the shard
// accessors, and directory persistence.

func goldenTexts(t *testing.T, n int) []string {
	t.Helper()
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: n, Seed: 77})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	return texts
}

func TestShardedPipeline(t *testing.T) {
	texts := goldenTexts(t, 140)
	plain, err := Build(texts[:120], Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(texts[:120], Config{Seed: 9, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != 4 || plain.Shards() != 0 {
		t.Fatalf("Shards() = %d/%d, want 4/0", sharded.Shards(), plain.Shards())
	}
	sum := 0
	for _, c := range sharded.ShardDocs() {
		sum += c
	}
	if sum != 120 {
		t.Fatalf("ShardDocs sums to %d, want 120", sum)
	}
	if plain.ShardDocs() != nil {
		t.Error("unsharded ShardDocs should be nil")
	}
	if sharded.NumClusters() != plain.NumClusters() {
		t.Errorf("NumClusters %d vs %d", sharded.NumClusters(), plain.NumClusters())
	}
	check := func(stage string) {
		t.Helper()
		for d := 0; d < plain.Stats().NumDocs; d += 5 {
			want, got := plain.Related(d, 5), sharded.Related(d, 5)
			if len(want) != len(got) {
				t.Fatalf("%s doc %d: %d vs %d results", stage, d, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s doc %d result %d: %v vs %v", stage, d, i, want[i], got[i])
				}
			}
		}
	}
	check("built")
	for _, text := range texts[120:] {
		wantID, err1 := plain.Add(text)
		gotID, err2 := sharded.Add(text)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if wantID != gotID {
			t.Fatalf("Add ids diverge: %d vs %d", wantID, gotID)
		}
	}
	check("post-add")

	// Explain mode flows through the sharded matcher too.
	ans, err := sharded.Query(context.Background(), 0, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	res, exps := ans.Results, ans.Explanations
	if len(res) != len(exps) {
		t.Fatalf("%d results, %d explanations", len(res), len(exps))
	}
}

func TestShardedPipelinePersistence(t *testing.T) {
	texts := goldenTexts(t, 100)
	sharded, err := Build(texts, Config{Seed: 9, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.WriteTo(&strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "WriteShardDir") {
		t.Errorf("sharded WriteTo error = %v, want pointer to WriteShardDir", err)
	}
	plain, err := Build(texts, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteShardDir(t.TempDir()); err == nil {
		t.Error("unsharded WriteShardDir should fail")
	}

	dir := t.TempDir()
	if err := sharded.WriteShardDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadShardDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 2 || loaded.Method() != sharded.Method() {
		t.Fatalf("loaded Shards/Method = %d/%q", loaded.Shards(), loaded.Method())
	}
	for d := 0; d < 100; d += 7 {
		want, got := sharded.Related(d, 5), loaded.Related(d, 5)
		if len(want) != len(got) {
			t.Fatalf("loaded doc %d: %d vs %d results", d, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("loaded doc %d result %d: %v vs %v", d, i, want[i], got[i])
			}
		}
	}
	// Doc is not retained across a load, same contract as ReadPipeline.
	if loaded.Doc(0) != nil {
		t.Error("loaded pipeline should not retain prepared docs")
	}
	// Loaded pipelines keep accepting adds.
	if _, err := loaded.Add(texts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestShardedBuildValidation(t *testing.T) {
	texts := goldenTexts(t, 30)
	if _, err := Build(texts, Config{Method: FullText, Shards: 2}); err == nil {
		t.Error("FullText with Shards should fail")
	}
	if _, err := Build(texts, Config{Method: LDA, Shards: 2}); err == nil {
		t.Error("LDA with Shards should fail")
	}
	// Shards: 1 is a valid (single-shard) sharded topology.
	p, err := Build(texts, Config{Seed: 9, Shards: 2, Method: SentIntentMR})
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 2 {
		t.Errorf("Shards() = %d", p.Shards())
	}
}
