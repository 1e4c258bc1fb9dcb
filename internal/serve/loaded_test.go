package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestLoadedPipelineReportsCollectionSize is the regression test for
// core.docs reading 0 after serve -load: only Build and Add set the
// gauge, so a restored server reported an empty collection on /metrics
// until its first /add. Both restore paths — the single snapshot file
// (the unsharded row's Save+Load) and the shard directory (the sharded
// row's) — must publish the persisted size.
func TestLoadedPipelineReportsCollectionSize(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	body, _ := json.Marshal(AddRequest{Text: theModel().addText(0)})
	for _, name := range []string{"unsharded", "shards=4"} {
		lr := openRow(t, rowNamed(name))
		if status, got := serveOnce(lr.srv[0], "/add", string(body)); status != 200 {
			t.Fatalf("%s: /add answered %d %s", name, status, got)
		}
		// Another build in the same process moves the gauge elsewhere, as
		// the offline build that wrote the snapshot never ran in a serving
		// process at all.
		openRow(t, rowNamed("unsharded"))
		lr.saveLoad(t)
		var snap obs.Snapshot
		if err := json.Unmarshal(request(lr.srv[0], "GET", "/metrics", "").Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if got, n := snap.Gauges["core.docs"], lr.eng.(*core.Pipeline).Stats().NumDocs; got != modelBase+1 || n != modelBase+1 {
			t.Fatalf("%s: core.docs = %d after load, want %d (NumDocs %d)", name, got, modelBase+1, n)
		}
	}
}
