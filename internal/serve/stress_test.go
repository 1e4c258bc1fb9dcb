package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/forum"
	"repro/internal/obs"
)

// TestRecycledTracesStress is the evidence obs.Tracer's trace pool asks
// for: with slow capture armed and nothing slow, every request's trace
// is dropped by Finish and handed to a later request, so a goroutine
// that kept writing to a trace past its request — a scatter leg, a
// hedged RPC, a singleflight compute — would be writing into someone
// else's. The pool resets a trace without its lock, which makes such a
// writer a data race; this test gives the detector (CI runs -race)
// every engine to find one in: the unsharded pipeline, the 4-shard
// group and a coordinator whose every shard has a replica to hedge to,
// each behind the cache, singleflight and admission, under concurrent
// /related (plain and explained) and /add. Every fourth probe to a
// primary replies 20 ms late, past the coordinator's 10 ms hedge delay
// (T/20 of a 200 ms budget) and inside its 50 ms attempt, so the
// coordinator row hedges and the late primary replies arrive after
// their legs are done.
func TestRecycledTracesStress(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	coordinator := lateReplicaCoordinator(t)
	hedges := obs.GetOrNewCounter("fleet.hedges")
	const docs = 120
	adds := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 40, Seed: 27})
	for name, eng := range map[string]Engine{
		"unsharded":   freshHygienePipeline(t, docs, 0),
		"shards=4":    freshHygienePipeline(t, docs, 4),
		"coordinator": coordinator,
	} {
		srv := New(eng, Config{SlowQuery: time.Hour, CacheEntries: 16, MaxInflight: 3, MaxQueued: 64})
		hedges0 := hedges.Value()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					path, body := "/related", fmt.Sprintf(`{"doc_id": %d, "k": %d, "explain": %t}`, (w*31+i*7)%docs, 3+i%2*2, i%5 == 0)
					if i%12 == 11 && name != "coordinator" {
						text, _ := json.Marshal(AddRequest{Text: adds[(w*5+i/12)%len(adds)].Text})
						path, body = "/add", string(text)
					}
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Errorf("%s: %s %s answered %d %s", name, path, body, rec.Code, rec.Body)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if kept := len(srv.tracer.Snapshot()); kept != 0 {
			t.Errorf("%s: %d traces published; every one should have been recycled", name, kept)
		}
		if name == "coordinator" {
			launched := hedges.Value() - hedges0
			t.Logf("coordinator: %d hedges launched", launched)
			if launched == 0 {
				t.Error("coordinator: no hedge launched; the row must hand the race detector a hedged RPC")
			}
		}
	}
}

// lateReplicaCoordinator is a coordinator over fleetBackend's shards,
// each behind a primary and a replica endpoint, on a 200 ms budget,
// whose every fourth probe to a primary replies 20 ms late: past the
// 10 ms hedge delay (T/20) and inside the 50 ms attempt, so those legs
// hedge to the replica.
func lateReplicaCoordinator(t *testing.T) *fleet.Coordinator {
	t.Helper()
	const prefix = "late"
	lt := fleettest.NewLocalTransport()
	var topo fleet.Topology
	for s, h := range fleetBackend().hosts {
		primary, replica := fmt.Sprintf("%s-p%d", prefix, s), fmt.Sprintf("%s-r%d", prefix, s)
		lt.AddHost(primary, h)
		lt.AddHost(replica, h)
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: primary, Replicas: []string{replica}})
	}
	chaos := fleettest.NewChaos(lt, fleet.RealClock{})
	chaos.Fallback = func(endpoint, kind string, call int) fleettest.ChaosAction {
		if kind == "probe" && strings.HasPrefix(endpoint, prefix+"-p") && call%4 == 1 {
			return fleettest.ChaosAction{ReplyDelay: 20 * time.Millisecond}
		}
		return fleettest.ChaosAction{}
	}
	c, err := fleet.New(context.Background(), topo, fleet.Options{Transport: chaos, Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
