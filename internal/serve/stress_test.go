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
// /related (plain and explained) and /add.
func TestRecycledTracesStress(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	lt := fleet.NewLocalTransport()
	var topo fleet.Topology
	for s, h := range fleetBackend().hosts {
		primary, replica := fmt.Sprintf("recycle-p%d", s), fmt.Sprintf("recycle-r%d", s)
		lt.AddHost(primary, h)
		lt.AddHost(replica, h)
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: primary, Replicas: []string{replica}})
	}
	coordinator, err := fleet.New(context.Background(), topo, fleet.Options{Transport: lt})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 120
	adds := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 40, Seed: 27})
	for name, eng := range map[string]Engine{
		"unsharded":   freshHygienePipeline(t, docs, 0),
		"shards=4":    freshHygienePipeline(t, docs, 4),
		"coordinator": coordinator,
	} {
		srv := New(eng, Config{SlowQuery: time.Hour, CacheEntries: 16, MaxInflight: 3, MaxQueued: 64})
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
	}
}
