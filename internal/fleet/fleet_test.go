package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forum"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/segment"
	"repro/internal/shard"
)

// Shared fixtures of the fleet tests, and the fleet's snapshot and
// wire-version contracts. That a coordinator ranks as shard.Group and the
// single matcher do, over either transport, is internal/serve's model
// test (TestEnginesMatchModel); what happens when shards do NOT answer is
// faultinject_test.go.

func genDocs(t testing.TB, domain forum.Domain, n int, seed int64) []*segment.Doc {
	t.Helper()
	posts := forum.Generate(forum.Config{Domain: domain, NumPosts: n, Seed: seed})
	docs := make([]*segment.Doc, len(posts))
	for i, p := range posts {
		docs[i] = segment.NewDoc(p.Text)
	}
	return docs
}

// testFleet is one in-process backend: the unsharded oracle, the
// sharded oracle, and the same partitions wrapped as fleet Hosts behind
// a LocalTransport.
type testFleet struct {
	mr    *match.MR
	g     *shard.Group
	hosts map[int]*Host
	lt    *LocalTransport
}

// epName names the LocalTransport endpoint for (shard, replica);
// replica 0 is the primary.
func epName(s, r int) string {
	if r == 0 {
		return fmt.Sprintf("s%d", s)
	}
	return fmt.Sprintf("s%d-r%d", s, r)
}

// buildBackend splits one matcher into nShards partitions and serves
// each as a Host at its primary endpoint plus `replicas` extra
// endpoints (same host — a read replica of the same snapshot).
func buildBackend(t testing.TB, docs []*segment.Doc, cfg match.MRConfig, nShards int, seed uint64, replicas int) *testFleet {
	t.Helper()
	mr := match.NewMR("MR", docs, cfg)
	g, err := shard.NewGroup(mr, nShards, seed)
	if err != nil {
		t.Fatalf("NewGroup(%d): %v", nShards, err)
	}
	f := &testFleet{mr: mr, g: g, hosts: HostsForGroup(g), lt: NewLocalTransport()}
	for s := 0; s < nShards; s++ {
		for r := 0; r <= replicas; r++ {
			f.lt.AddHost(epName(s, r), f.hosts[s])
		}
	}
	return f
}

// topo builds the coordinator-side endpoint map with the given replica
// count per shard.
func (f *testFleet) topo(replicas int) Topology {
	var topo Topology
	for s := 0; s < f.g.NumShards(); s++ {
		se := ShardEndpoints{Shard: s, Primary: epName(s, 0)}
		for r := 1; r <= replicas; r++ {
			se.Replicas = append(se.Replicas, epName(s, r))
		}
		topo.Endpoints = append(topo.Endpoints, se)
	}
	return topo
}

// vopts is the fault-suite Options profile: a virtual clock and a
// budget of 800ms, so the derived schedule is in round numbers — each
// attempt cut at 200ms, retries backing off 10ms then 20ms, a hedge
// at 40ms. All timing below is virtual — the suite never sleeps.
func vopts(tr Transport, clock Clock) Options {
	return Options{Transport: tr, Clock: clock, Timeout: 800 * time.Millisecond}
}

// coordinator bootstraps a Coordinator over the backend or fails the
// test.
func (f *testFleet) coordinator(t testing.TB, topo Topology, opts Options) *Coordinator {
	t.Helper()
	c, err := New(context.Background(), topo, opts)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return c
}

// mustJSON marshals for byte-for-byte comparisons: Go's float64
// encoding is shortest-round-trip, so equal bytes ⇔ bit-equal scores
// in identical order.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// sameResults asserts bit-for-bit equality of two rankings.
func sameResults(t *testing.T, ctx string, want, got []match.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results want vs %d got\nwant: %v\ngot:  %v", ctx, len(want), len(got), want, got)
	}
	for i := range want {
		if want[i].DocID != got[i].DocID || want[i].Score != got[i].Score {
			t.Fatalf("%s: result %d diverges: want %d/%v got %d/%v",
				ctx, i, want[i].DocID, want[i].Score, got[i].DocID, got[i].Score)
		}
	}
}

// saveSnapshot builds a pipeline over n generated posts of domain,
// split into shards routed by seed, and saves it; it returns the path.
func saveSnapshot(t *testing.T, domain forum.Domain, n int, seed int64, shards int) string {
	t.Helper()
	posts := forum.Generate(forum.Config{Domain: domain, NumPosts: n, Seed: seed})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	p, err := core.Build(texts, core.Config{Seed: seed, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadHostFleet runs the snapshot path end to end: one saved
// four-shard snapshot, two hosts each loading a two-shard slice of it, a
// coordinator routing the four-shard topology onto them.
func TestLoadHostFleet(t *testing.T) {
	path := saveSnapshot(t, forum.TechSupport, 160, 99, 4)
	hostA, err := LoadHost(path, []int{0, 1})
	if err != nil {
		t.Fatalf("LoadHost A: %v", err)
	}
	hostB, err := LoadHost(path, []int{2, 3})
	if err != nil {
		t.Fatalf("LoadHost B: %v", err)
	}
	a, b := hostA.Meta(), hostB.Meta()
	if a.Epoch != b.Epoch {
		t.Fatalf("hosts from one snapshot disagree on epoch: %d vs %d", a.Epoch, b.Epoch)
	}
	if !slices.Equal(a.Shards, []int{0, 1}) {
		t.Fatalf("host A owns wrong shards: %v", a.Shards)
	}
	if _, err := LoadHost(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("LoadHost of a missing file succeeded")
	}
	lt := NewLocalTransport()
	lt.AddHost("a", hostA)
	lt.AddHost("b", hostB)
	topo := Topology{Endpoints: []ShardEndpoints{
		{Shard: 0, Primary: "a"}, {Shard: 1, Primary: "a"},
		{Shard: 2, Primary: "b"}, {Shard: 3, Primary: "b"},
	}}
	c, err := New(context.Background(), topo, vopts(lt, NewVirtualClock(time.Unix(0, 0))))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	if c.NumDocs() != 160 || c.NumShards() != 4 {
		t.Fatalf("coordinator sees %d docs / %d shards, want 160 / 4", c.NumDocs(), c.NumShards())
	}
}

// TestLoadHostMixedSnapshots: two hosts loaded from snapshots of two
// builds — different corpora under one name, shard count, seed and
// cluster count — do not share an epoch, so the coordinator refuses
// the fleet at bootstrap instead of merging unrelated collections.
func TestLoadHostMixedSnapshots(t *testing.T) {
	tech := saveSnapshot(t, forum.TechSupport, 120, 42, 2)
	travel := saveSnapshot(t, forum.Travel, 150, 42, 2)
	host0, err := LoadHost(tech, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	host1, err := LoadHost(travel, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	m0, m1 := host0.Meta(), host1.Meta()
	if m0.Name != m1.Name || m0.TotalShards != m1.TotalShards || m0.Seed != m1.Seed || m0.Clusters != m1.Clusters {
		t.Fatalf("the two builds differ in topology (%+v, %+v); the case needs them alike", m0, m1)
	}
	lt := NewLocalTransport()
	lt.AddHost("tech", host0)
	lt.AddHost("travel", host1)
	topo := Topology{Endpoints: []ShardEndpoints{{Shard: 0, Primary: "tech"}, {Shard: 1, Primary: "travel"}}}
	if _, err := New(context.Background(), topo, vopts(lt, NewVirtualClock(time.Unix(0, 0)))); err == nil || !strings.Contains(err.Error(), "mixed snapshots") {
		t.Fatalf("fleet over two builds: bootstrap error %v, want mixed snapshots", err)
	}
}

// refPartial is the test-side oracle for degraded answers: an
// independent reimplementation of the scatter-gather merge over the
// non-missing shards only, straight against the shard matchers. A
// partial fleet answer must equal this exactly — "partial" means
// missing shards were excluded, never that the surviving merge was
// approximated.
func refPartial(t testing.TB, f *testFleet, docID, k int, missing map[int]bool) []match.Result {
	t.Helper()
	home := f.g.Route(docID)
	if missing[home] {
		t.Fatalf("refPartial: home shard %d cannot be missing (that is a typed error, not a partial)", home)
	}
	nShards := f.g.NumShards()
	local := 0
	glb := make([][]int, nShards)
	for d := 0; d < f.g.NumDocs(); d++ {
		s := f.g.Route(d)
		if d == docID {
			local = len(glb[s])
		}
		glb[s] = append(glb[s], d)
	}
	hmr := f.g.ShardMR(home)
	probes := hmr.QuerySegs(local)
	if probes == nil {
		t.Fatalf("refPartial: doc %d has no segments", docID)
	}
	n := f.mr.Config().ListDepth(k)
	homeLists := hmr.QueryClusterLists(probes, n, local, nil, nil)
	lists := make(map[int][][]match.Result)
	lists[home] = homeLists
	for s := 0; s < nShards; s++ {
		if s == home || missing[s] {
			continue
		}
		// A sibling host scans under thetas of its own, seeded — as
		// HandleProbe seeds them — with the home list's n-th score.
		thetas := make([]index.Theta, len(probes))
		for i, l := range homeLists {
			if n > 0 && len(l) >= n {
				thetas[i].Raise(l[n-1].Score)
			}
		}
		lists[s] = f.g.ShardMR(s).QueryClusterLists(probes, n, -1, thetas, nil)
	}
	scores := make(map[int]float64)
	for i := range probes {
		var merged []match.Result
		for s := 0; s < nShards; s++ {
			sl, ok := lists[s]
			if !ok {
				continue
			}
			for _, r := range sl[i] {
				merged = append(merged, match.Result{DocID: glb[s][r.DocID], Score: r.Score})
			}
		}
		sort.Slice(merged, func(a, b int) bool { return merged[a].Before(merged[b]) })
		for _, r := range merged[:min(n, len(merged))] {
			scores[r.DocID] += r.Score
		}
	}
	return match.TopKScores(scores, k, docID)
}

// TestRefPartialOracleMatchesGroup sanity-checks the oracle itself:
// with nothing missing it must agree with shard.Group bit-for-bit,
// otherwise every partial assertion downstream would be vacuous.
func TestRefPartialOracleMatchesGroup(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 120, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 4, 42, 0)
	for doc := 0; doc < len(docs); doc += 11 {
		want := f.g.Match(doc, 6)
		got := refPartial(t, f, doc, 6, nil)
		sameResults(t, fmt.Sprintf("doc %d", doc), want, got)
	}
}

// wireReporter makes every shard's /internal/meta report a chosen wire
// version — a peer built from another tree.
type wireReporter struct {
	Transport
	wire int
}

func (w *wireReporter) Meta(ctx context.Context, ep string, deliver func(*Meta, error)) {
	w.Transport.Meta(ctx, ep, func(m *Meta, err error) {
		if m != nil {
			mm := *m
			mm.Wire = w.wire
			m = &mm
		}
		deliver(m, err)
	})
}

// TestBootstrapRejectsWireMismatch pins the one wire-version rule left:
// no negotiation, no downgrade — a peer reporting any version but this
// tree's (older, or absent and decoded as 0, or newer) fails bootstrap
// with the typed wire_mismatch error.
func TestBootstrapRejectsWireMismatch(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 60, 42)
	f := buildBackend(t, docs, match.MRConfig{Seed: 7}, 2, 42, 0)
	for _, wire := range []int{0, WireVersion - 1, WireVersion + 1} {
		_, err := New(context.Background(), f.topo(0), Options{Transport: &wireReporter{f.lt, wire}})
		var rpc *RPCError
		if !errors.As(err, &rpc) || rpc.Kind != "wire_mismatch" {
			t.Fatalf("peer on wire %d: bootstrap error %v, want a typed wire_mismatch", wire, err)
		}
	}
	if _, err := New(context.Background(), f.topo(0), Options{Transport: &wireReporter{f.lt, WireVersion}}); err != nil {
		t.Fatalf("peer on this tree's wire version: %v", err)
	}
}
