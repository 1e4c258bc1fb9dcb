package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/obs"
)

// TestRecycledTracesStress is the evidence obs.Tracer's trace pool asks
// for: with slow capture armed and nothing slow, every request's trace
// is dropped by Finish and handed to a later request, so a goroutine
// that kept writing to a trace past its request — a scatter leg, a
// hedged RPC, a singleflight compute — would be writing into someone
// else's. The pool resets a trace without its lock, which makes such a
// writer a data race; this test gives the detector (CI runs -race)
// every kind of engine to find one in: the unsharded pipeline, the
// 4-shard group and the 4-shard coordinator over LocalTransport, on the
// real clock, each behind the cache, singleflight and admission, under
// concurrent /related (plain and explained) and /add. Every shard of
// the coordinator gets a replica, and about one probe in four to a
// primary host replies 20 ms late, past the coordinator's 10 ms hedge
// delay (T/20 of its 200 ms budget) and inside its 50 ms attempt, so
// every shard's legs hedge, and their late primary replies arrive after
// the legs are done.
func TestRecycledTracesStress(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	hedges := obs.GetOrNewCounter("fleet.hedges")
	_, stream := modelCorpus()
	lateProbes := func(lr *liveRow) {
		lr.options = func(topo *fleet.Topology, o *fleet.Options) {
			for i := range topo.Endpoints {
				e := &topo.Endpoints[i]
				e.Replicas = []string{e.Primary + "-replica"}
			}
			chaos := fleettest.NewChaos(o.Transport, fleet.RealClock{})
			chaos.Fallback = func(endpoint, kind string, call int) fleettest.ChaosAction {
				if kind == "probe" && !strings.HasSuffix(endpoint, "-replica") && call%4 == 1 {
					return fleettest.ChaosAction{ReplyDelay: 20 * time.Millisecond}
				}
				return fleettest.ChaosAction{}
			}
			o.Transport, o.Clock = chaos, fleet.RealClock{}
		}
	}
	for _, name := range []string{"unsharded", "shards=4", "local/shards=4"} {
		lr := openRow(t, rowNamed(name), lateProbes)
		t.Cleanup(lr.close)
		srv := New(lr.eng, Config{SlowQuery: time.Hour, CacheEntries: 16, MaxInflight: 3, MaxQueued: 64})
		hedges0 := hedges.Value()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					path, body := "/related", fmt.Sprintf(`{"doc_id": %d, "k": %d, "explain": %t}`, (w*31+i*7)%modelBase, 3+i%2*2, i%5 == 0)
					if i%12 == 11 && lr.fleet == "" {
						text, _ := json.Marshal(AddRequest{Text: stream[(w*5+i/12)%len(stream)]})
						path, body = "/add", string(text)
					}
					if status, got := serveOnce(srv, path, body); status != http.StatusOK {
						t.Errorf("%s: %s %s answered %d %s", name, path, body, status, got)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if kept := len(srv.tracer.Snapshot()); kept != 0 {
			t.Errorf("%s: %d traces published; every one should have been recycled", name, kept)
		}
		if lr.fleet != "" {
			launched := hedges.Value() - hedges0
			t.Logf("%s: %d hedges launched", name, launched)
			if launched == 0 {
				t.Error("no hedge launched; the coordinator row must hand the race detector a hedged RPC")
			}
		}
	}
}
