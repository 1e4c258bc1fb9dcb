package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestServeLoadedPipeline is the regression test for serving a restored
// snapshot (the cmd/serve -load path): pipelines loaded by ReadPipeline
// carry no prepared documents, and id validation must still accept
// every id of the persisted collection — the bug where Doc-based
// validation 404'd every query against a loaded pipeline. Results must
// match the building pipeline's results exactly, and out-of-range ids
// must still 404.
func TestServeLoadedPipeline(t *testing.T) {
	built := testPipeline()
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	t.Cleanup(obs.Disable)
	builtSrv := httptest.NewServer(New(built, Config{}).Handler())
	t.Cleanup(builtSrv.Close)
	loadedSrv := httptest.NewServer(New(loaded, Config{}).Handler())
	t.Cleanup(loadedSrv.Close)

	for _, doc := range []int{0, 3, 17, built.Stats().NumDocs - 1} {
		body, err := json.Marshal(map[string]any{"doc_id": doc, "k": 5})
		if err != nil {
			t.Fatal(err)
		}
		resA, bodyA := postJSON(t, builtSrv.URL+"/related", string(body))
		resB, bodyB := postJSON(t, loadedSrv.URL+"/related", string(body))
		if resA.StatusCode != 200 || resB.StatusCode != 200 {
			t.Fatalf("doc %d: built %d, loaded %d (want 200/200): %s", doc, resA.StatusCode, resB.StatusCode, bodyB)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("doc %d: loaded-pipeline response diverges:\nbuilt:  %s\nloaded: %s", doc, bodyA, bodyB)
		}
	}

	// Out-of-range ids still 404 on the loaded server.
	res, _ := postJSON(t, loadedSrv.URL+"/related", `{"doc_id": 99999}`)
	if res.StatusCode != 404 {
		t.Fatalf("out-of-range id on loaded pipeline: status %d, want 404", res.StatusCode)
	}
}

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
