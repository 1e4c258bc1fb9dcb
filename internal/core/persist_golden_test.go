package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/forum"
)

// TestPersistedGoldenEquivalence is the persistence acceptance gate at
// the top of the stack: the golden corpus pipeline, persisted as a
// snapshot file and as shard directories at 2 and 4 shards, must load
// back and render the committed golden rankings byte for byte,
// full-precision scores included. A layout that shifted a single score
// bit anywhere below (index postings, matcher tables, shard routing)
// diffs here.
func TestPersistedGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("several full 200-post builds")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_related.txt"))
	if err != nil {
		t.Fatalf("missing golden file (run TestRelatedGolden with -update first): %v", err)
	}
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: goldenPosts, Seed: goldenSeed})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}

	built, err := Build(texts, Config{Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("compact", func(t *testing.T) {
		var buf bytes.Buffer
		if _, err := built.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadPipeline(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRelated(loaded); got != string(golden) {
			t.Fatalf("snapshot round trip drifted from the golden rankings:\n--- want\n%s\n--- got\n%s", golden, got)
		}
	})

	// Shards: 1 builds unsharded (covered by the single-file leg above
	// and the shard-package equivalence test); directories start at 2.
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("sharddir-%d", shards), func(t *testing.T) {
			p, err := Build(texts, Config{Seed: goldenSeed, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := p.WriteShardDir(dir); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadShardDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderRelated(loaded); got != string(golden) {
				t.Fatalf("%d-shard directory round trip drifted from the golden rankings:\n--- want\n%s\n--- got\n%s", shards, golden, got)
			}
		})
	}
}
