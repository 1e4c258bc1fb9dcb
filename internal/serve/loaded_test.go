package serve

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestLoadedPipelineReportsCollectionSize is the regression test for
// core.docs reading 0 after serve -load: only Build and Add set the
// gauge, so a restored server reported an empty collection on /metrics
// until its first /add. Both restore paths — the single snapshot file
// and the shard directory — must publish the persisted size.
func TestLoadedPipelineReportsCollectionSize(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	const posts = 60
	var file bytes.Buffer
	if _, err := freshHygienePipeline(t, posts, 0).WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := freshHygienePipeline(t, posts, 4).WriteShardDir(dir); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() (*core.Pipeline, error){
		"snapshot file":   func() (*core.Pipeline, error) { return core.ReadPipeline(&file) },
		"shard directory": func() (*core.Pipeline, error) { return core.ReadShardDir(dir) },
	} {
		// Another build in the same process moves the gauge elsewhere, as
		// the offline build that wrote the snapshot never ran in a serving
		// process at all.
		freshHygienePipeline(t, posts/2, 0)
		loaded, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var snap obs.Snapshot
		getJSON(t, newServerFor(t, loaded, Config{}).URL+"/metrics", &snap)
		if got := snap.Gauges["core.docs"]; got != posts || loaded.Stats().NumDocs != posts {
			t.Fatalf("%s: core.docs = %d after load, want %d (NumDocs %d)", name, got, posts, loaded.Stats().NumDocs)
		}
	}
}
