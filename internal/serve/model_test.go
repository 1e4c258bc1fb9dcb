package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/segment"
	"repro/internal/shard"
)

// The model test is the one proof that every engine serves the paper's
// /related — Eq 7–9 scores inside each intention cluster, Algorithm 1's
// top-n lists, Algorithm 2's sum. A seeded state machine drives Add,
// Related, Explain, Save+Load, KillShard and Heal through every engine a
// Server fronts (modelRows), each behind a default and a cached server,
// and holds every /related and /add body byte for byte to the model's —
// and a cached server's hits to answers it computed since the engine's
// epoch last moved.
//
// The model is a map-and-sort scorer sharing no code with the engines.
// From them it takes only the segmentation — each document's refined
// segments, read off a reference matcher fed the same adds — and the
// routing, for partial answers; denominators, NU, df, pIDF, the lists,
// cuts and sums it counts itself. Its answer is a function of the
// collection prefix p and the dead shards.
//
// A failing sequence is shrunk on the row it failed on and printed as a
// Go literal: add it to modelRegressions to keep it.

const (
	modelBase = 100 // posts every engine is built over
	modelSeed = 42  // build and routing seed of every engine
	modelHot  = 8   // doc ids the generator favours, so that caches hit
)

// modelRegressions are sequences that once failed, each on its row; the
// comment names the mutation that made it fail.
var modelRegressions = []struct {
	row string
	ops []modelOp
}{
	{"local/shards=2", []modelOp{{opRelated, 8, 5}}},                                    // θ compare made strict
	{"unsharded", []modelOp{{opRelated, 2, 0}, {opAdd, 0, 0}, {opRelated, 2, 0}}},       // no epoch bump on commit
	{"shards=4", []modelOp{{opRelated, 2, 7}}},                                          // a shard's df out of the pool
	{"unsharded", []modelOp{{opRelated, 2, 7}}},                                         // sums in term-id order
	{"local/shards=1", []modelOp{{opRelated, 5, 5}, {opKill, 0, 0}, {opRelated, 5, 5}}}, // no epoch move on degradation
	{"local/shards=2", []modelOp{{opKill, 0, 0}, {opRelated, 2, 0}, {opRelated, 2, 0}}}, // partial answers cached
}

// opKind is a transition of the state machine.
type opKind uint8

const (
	opAdd      opKind = iota // POST /add of the next post of the add stream
	opRelated                // POST /related {doc_id: Doc, k: K}; K 0 asks for the default
	opExplain                // the same with explain
	opSaveLoad               // persist every engine and serve what loads back
	opKill                   // shard Doc stops answering (coordinators)
	opHeal                   // shard Doc answers again
	numOpKinds
)

var opNames = [numOpKinds]string{"opAdd", "opRelated", "opExplain", "opSaveLoad", "opKill", "opHeal"}

type modelOp struct {
	Kind   opKind
	Doc, K int
}

func (op modelOp) String() string { return fmt.Sprintf("{%s, %d, %d}", opNames[op.Kind], op.Doc, op.K) }

// literal prints a regression case.
func literal(row string, ops []modelOp) string {
	steps := make([]string, len(ops))
	for i, op := range ops {
		steps[i] = op.String()
	}
	return fmt.Sprintf("{%q, []modelOp{%s}}", row, strings.Join(steps, ", "))
}

// genModelOps draws n steps. Queries favour a few documents and k values
// and often repeat the last query, so the cached servers replay answers
// — across adds, loads, kills and heals, where a stale replay shows.
func genModelOps(rng *rand.Rand, n int) []modelOp {
	ops := make([]modelOp, 0, n)
	docs := modelBase
	var last modelOp // the last query; its zero value, an opAdd, is none yet
	for len(ops) < n {
		var op modelOp
		switch r := rng.Intn(100); {
		case r < 14:
			op = modelOp{Kind: opAdd}
			docs++
		case r < 25:
			op = modelOp{Kind: opSaveLoad}
		case r < 35:
			op = modelOp{Kind: opKill, Doc: rng.Intn(4)}
		case r < 45:
			op = modelOp{Kind: opHeal, Doc: rng.Intn(4)}
		case r < 60 && last.Kind != opAdd:
			op = last
		default:
			op = modelOp{Kind: opRelated, Doc: rng.Intn(docs), K: []int{0, 3, 5, 5, 1 + rng.Intn(12)}[rng.Intn(5)]}
			switch r := rng.Intn(20); {
			case r == 0:
				op.Doc = -1 - rng.Intn(3)
			case r == 1:
				op.Doc = docs + rng.Intn(3)
			case r == 2:
				op.Doc = 100000
			case r < 12:
				op.Doc = rng.Intn(modelHot)
			}
			if rng.Intn(5) == 0 {
				op.Kind = opExplain
			}
			last = op
		}
		ops = append(ops, op)
	}
	return ops
}

// modelSeg is a refined segment: its intention cluster, its distinct
// terms in name order and their frequencies.
type modelSeg struct {
	cluster int
	terms   []string
	tf      map[string]float64
}

// modelCluster is one intention cluster of a collection prefix: per
// document with a unit here, its segment and Eq 7 denominator Σ (ln tf +
// 1) in term order; per term, the documents holding it, ascending.
type modelCluster struct {
	units, totalUnique int
	seg                map[int]*modelSeg
	denom              map[int]float64
	postings           map[string][]int
}

// weight is Eq 7/8's w(t, unit) of document d's unit.
func (c *modelCluster) weight(d int, t string) float64 {
	nu := max(float64(len(c.seg[d].terms))/(float64(c.totalUnique)/float64(c.units)), 1)
	return (math.Log(c.seg[d].tf[t]) + 1) / (c.denom[d] * nu)
}

// pIDF is Eq 9's smoothed inverse document frequency, floored at 0.
func (c *modelCluster) pIDF(t string) float64 {
	df := float64(len(c.postings[t]))
	return max(math.Log((float64(c.units)-df+0.5)/(df+0.5)), 0)
}

// modelQuery is what an answer of the model depends on: the collection
// prefix, a coordinator's shard count and dead shards (a bit each), and
// the request.
type modelQuery struct {
	p, shards int
	dead      uint8
	key       cache.Key
}

// modelFixture is what every sequence shares: the corpus, the add
// stream, the reference matcher's segmentation and the model's tables.
type modelFixture struct {
	baseTexts []string
	baseDocs  []*segment.Doc
	stream    []string // the add stream, cycled

	mu     sync.Mutex
	ref    *match.MR
	segs   [][]*modelSeg
	tables map[int][]*modelCluster // per collection prefix
	bodies map[modelQuery][]byte
}

var theModel = sync.OnceValue(func() *modelFixture {
	f := &modelFixture{tables: map[int][]*modelCluster{}, bodies: map[modelQuery][]byte{}}
	for _, p := range forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: modelBase, Seed: modelSeed}) {
		f.baseTexts = append(f.baseTexts, p.Text)
		f.baseDocs = append(f.baseDocs, segment.NewDoc(p.Text))
	}
	// New posts; posts whose unseen terms sort before, among and after
	// the dictionary's; copies of old posts, which tie across shards.
	for i, p := range forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 24, Seed: 777}) {
		f.stream = append(f.stream, p.Text)
		if i%4 == 1 {
			f.stream = append(f.stream, fmt.Sprintf("aaa zebra middle %d raid disk. My raid array fails. Does anyone know how to fix zzzterm%d? I tried mmmterm rebooting.", i, i))
		}
		if i%5 == 3 {
			f.stream = append(f.stream, f.baseTexts[i])
		}
	}
	f.ref = match.NewMR("IntentIntent-MR", f.baseDocs, match.MRConfig{Seed: modelSeed})
	return f
})

func (f *modelFixture) addText(i int) string { return f.stream[i%len(f.stream)] }

// clusters counts the intention clusters of the first p documents,
// feeding the reference matcher the add stream as far as that takes.
// Callers hold f.mu.
func (f *modelFixture) clusters(p int) []*modelCluster {
	if cs, ok := f.tables[p]; ok {
		return cs
	}
	for f.ref.NumDocs() < p {
		f.ref.Add(segment.NewDoc(f.addText(f.ref.NumDocs() - modelBase)))
	}
	names := f.ref.Dict().Terms()
	for d := len(f.segs); d < p; d++ {
		var segs []*modelSeg
		for _, q := range f.ref.QuerySegs(d) {
			s := &modelSeg{cluster: q.Cluster, tf: map[string]float64{}}
			for i, id := range q.Terms {
				s.terms = append(s.terms, names.Term(id))
				s.tf[names.Term(id)] = q.QF[i]
			}
			sort.Strings(s.terms)
			segs = append(segs, s)
		}
		f.segs = append(f.segs, segs)
	}
	cs := make([]*modelCluster, f.ref.NumClusters())
	for c := range cs {
		cs[c] = &modelCluster{seg: map[int]*modelSeg{}, denom: map[int]float64{}, postings: map[string][]int{}}
	}
	for d := 0; d < p; d++ {
		for _, s := range f.segs[d] {
			c := cs[s.cluster]
			c.units++
			c.totalUnique += len(s.terms)
			c.seg[d] = s
			for _, t := range s.terms {
				c.denom[d] += math.Log(s.tf[t]) + 1
				c.postings[t] = append(c.postings[t], d)
			}
		}
	}
	f.tables[p] = cs
	return cs
}

type modelEntry struct {
	doc   int
	score float64
}

// byScore sorts score descending, document ascending.
func byScore(es []modelEntry) {
	sort.Slice(es, func(a, b int) bool {
		return es[a].score > es[b].score || es[a].score == es[b].score && es[a].doc < es[b].doc
	})
}

// body is the encoded 200 of the model's answer to q: per segment of the
// query document (Algorithm 1), every live unit of its cluster scored
// with Eq 9, sorted in full, cut at n = 2k; the per-document sums in
// segment order (Algorithm 2); the top k; with explain, every summand
// down to its term products.
func (f *modelFixture) body(q modelQuery) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	if b, ok := f.bodies[q]; ok {
		return b
	}
	route := shard.NewDirectory(modelSeed, max(q.shards, 1)).Route
	dead := func(doc int) bool { return q.dead&(1<<route(doc)) != 0 }
	cs, k := f.clusters(q.p), q.key.K
	type list struct {
		seg *modelSeg
		es  []modelEntry
	}
	var lists []list
	sums := map[int]float64{}
	for _, qs := range f.segs[q.key.Doc] {
		c, scores := cs[qs.cluster], map[int]float64{}
		for _, t := range qs.terms {
			if idf := c.pIDF(t); idf > 0 {
				for _, d := range c.postings[t] {
					if d != q.key.Doc && !dead(d) {
						scores[d] += float64(qs.tf[t] * c.weight(d, t) * idf)
					}
				}
			}
		}
		var es []modelEntry
		for d, s := range scores {
			if s > 0 {
				es = append(es, modelEntry{d, s})
			}
		}
		byScore(es)
		es = es[:min(len(es), 2*k)]
		for _, e := range es {
			sums[e.doc] += e.score
		}
		lists = append(lists, list{qs, es})
	}
	var top []modelEntry
	for d, s := range sums {
		top = append(top, modelEntry{d, s})
	}
	byScore(top)

	var ans match.Answer
	for _, e := range top[:min(len(top), k)] {
		ans.Results = append(ans.Results, match.Result{DocID: e.doc, Score: e.score})
		exp := match.Explanation{DocID: e.doc, Score: e.score}
		for _, l := range lists {
			for _, le := range l.es {
				if le.doc != e.doc {
					continue
				}
				c := cs[l.seg.cluster]
				cc := match.ClusterContribution{Cluster: l.seg.cluster, Score: le.score}
				for _, t := range l.seg.terms {
					if _, ok := c.seg[e.doc].tf[t]; ok && c.pIDF(t) > 0 {
						w, idf := c.weight(e.doc, t), c.pIDF(t)
						cc.Terms = append(cc.Terms, match.TermContribution{Term: t, QueryTF: l.seg.tf[t], Weight: w, IDF: idf, Contribution: l.seg.tf[t] * w * idf})
					}
				}
				exp.Clusters = append(exp.Clusters, cc)
			}
		}
		ans.Explanations = append(ans.Explanations, exp)
	}
	for s := range q.shards {
		if q.dead&(1<<s) != 0 {
			ans.Partial, ans.Missing = true, append(ans.Missing, s)
		}
	}
	b, err := encodeBody(relatedResponse(q.key, ans))
	if err != nil {
		panic(err)
	}
	f.bodies[q] = b
	return b
}

// modelRow is one engine configuration under test: a pipeline (fleet "")
// unsharded (shards 0) or sharded, or a coordinator over LocalTransport
// (shard 0 with a replica) or over HTTPTransport to shard servers.
type modelRow struct {
	name   string
	fleet  string
	shards int
}

var modelRows = []modelRow{
	{"unsharded", "", 0}, {"shards=2", "", 2}, {"shards=4", "", 4}, {"shards=8", "", 8},
	{"local/shards=1", "local", 1}, {"local/shards=2", "local", 2}, {"local/shards=4", "local", 4},
	{"http/shards=4", "http", 4},
}

// errShardKilled is what a killed shard answers: a transient failure,
// as a refused connection is.
var errShardKilled = &fleet.RPCError{Kind: "killed", Msg: "shard killed by the model test"}

// killSwitch fails every query RPC to a dead shard, at any endpoint.
type killSwitch struct {
	fleet.Transport
	dead [4]bool
}

func (k *killSwitch) Home(ctx context.Context, ep string, req *fleet.HomeRequest, deliver func(*fleet.HomeResponse, error)) {
	if k.dead[req.Shard] {
		deliver(nil, errShardKilled)
		return
	}
	k.Transport.Home(ctx, ep, req, deliver)
}

func (k *killSwitch) Probe(ctx context.Context, ep string, req *fleet.ProbeRequest, deliver func(*fleet.ProbeResponse, error)) {
	if k.dead[req.Shard] {
		deliver(nil, errShardKilled)
		return
	}
	k.Transport.Probe(ctx, ep, req, deliver)
}

func (k *killSwitch) Explain(ctx context.Context, ep string, req *fleet.ExplainRequest, deliver func(*fleet.ExplainResponse, error)) {
	if k.dead[req.Shard] {
		deliver(nil, errShardKilled)
		return
	}
	k.Transport.Explain(ctx, ep, req, deliver)
}

// liveRow is a row's engine during a sequence, behind its two servers.
// A coordinator refuses adds and serves the last snapshot of writer,
// the group every add lands in.
type liveRow struct {
	modelRow
	eng    Engine
	srv    [2]*Server // Config{} and Config{CacheEntries: 64}
	p      int        // the collection prefix the engine serves
	dir    string     // where Save+Load writes
	writer *core.Pipeline
	kill   *killSwitch
	closes []func()

	// The cache model. stored is what the cached server may replay: the
	// complete answers it computed since the engine's epoch last moved —
	// on an add, or on a coordinator when a shard's legs start failing
	// (failing: the shards whose last leg failed).
	stored  map[cache.Key]bool
	failing [4]bool
}

var serverNames = [2]string{"default", "cached"}

func (lr *liveRow) setEngine(eng Engine) {
	lr.eng, lr.srv = eng, [2]*Server{New(eng, Config{}), New(eng, Config{CacheEntries: 64})}
	lr.stored, lr.failing = map[cache.Key]bool{}, [4]bool{}
}

// computed books what a query of doc that reached the engine did to a
// coordinator's view of its shards: the home leg, and when it answered
// every sibling's. A shard's first failure after an answer moves the
// cache epoch.
func (lr *liveRow) computed(doc int) {
	if lr.kill == nil || doc < 0 || doc >= lr.p {
		return
	}
	home := shard.NewDirectory(modelSeed, lr.shards).Route(doc)
	for s := range lr.shards {
		switch {
		case s != home && lr.kill.dead[home]:
		case !lr.kill.dead[s]:
			lr.failing[s] = false
		case !lr.failing[s]:
			lr.failing[s] = true
			clear(lr.stored)
		}
	}
}

func openRow(t *testing.T, f *modelFixture, row modelRow) *liveRow {
	t.Helper()
	lr := &liveRow{modelRow: row, p: modelBase, dir: t.TempDir()}
	if row.fleet == "" {
		p, err := core.Build(f.baseTexts, core.Config{Seed: modelSeed, Shards: row.shards})
		if err != nil {
			t.Fatal(err)
		}
		lr.setEngine(p)
		return lr
	}
	// One shard is an unsharded build: its snapshot loads as the one
	// shard of a one-shard collection.
	w, err := core.Build(f.baseTexts, core.Config{Seed: modelSeed, Shards: row.shards})
	if err != nil {
		t.Fatal(err)
	}
	lr.writer, lr.kill = w, &killSwitch{}
	lr.saveLoad(t)
	return lr
}

func (lr *liveRow) close() {
	for _, c := range lr.closes {
		c()
	}
	lr.closes = nil
}

// saveLoad persists the engine and serves what loads back: a snapshot
// streamed or saved in a directory, or — for a coordinator — the
// writer's snapshot split over two hosts, which brings it up to every
// add.
func (lr *liveRow) saveLoad(t *testing.T) {
	t.Helper()
	var p *core.Pipeline
	var err error
	switch {
	case lr.writer != nil:
		lr.serveFleet(t)
		return
	case lr.shards > 1:
		if err = lr.eng.(*core.Pipeline).WriteShardDir(lr.dir); err == nil {
			p, err = core.ReadShardDir(lr.dir)
		}
	default:
		var buf bytes.Buffer
		if _, err = lr.eng.(*core.Pipeline).WriteTo(&buf); err == nil {
			p, err = core.ReadPipeline(&buf)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	lr.setEngine(p)
}

// serveFleet saves the writer's snapshot and puts a new coordinator over
// two hosts loaded from it, owning the lower and the upper half of the
// shards.
func (lr *liveRow) serveFleet(t *testing.T) {
	t.Helper()
	lr.close()
	path := filepath.Join(lr.dir, "snap")
	if err := lr.writer.Save(path); err != nil {
		t.Fatal(err)
	}
	var topo fleet.Topology
	lt := fleet.NewLocalTransport()
	for half := range 2 {
		var own []int
		for s := range lr.shards {
			if s*2/lr.shards == half {
				own = append(own, s)
			}
		}
		if len(own) == 0 {
			continue
		}
		h, err := fleet.LoadHost(path, own)
		if err != nil {
			t.Fatal(err)
		}
		ep := fmt.Sprintf("host%d", half)
		if lr.fleet == "http" {
			ts := httptest.NewServer(NewShardServer(h, Config{}).Handler())
			lr.closes = append(lr.closes, ts.Close)
			ep = ts.URL
		}
		lt.AddHost(ep, h)
		lt.AddHost(ep+"-replica", h)
		for _, s := range own {
			topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: ep})
		}
	}
	if lr.fleet == "local" {
		topo.Endpoints[0].Replicas = []string{"host0-replica"}
	}
	lr.kill.Transport = lt
	if lr.fleet == "http" {
		tr := fleet.NewHTTPTransport()
		lr.closes = append(lr.closes, tr.Client.CloseIdleConnections)
		lr.kill.Transport = tr
	}
	c, err := fleet.New(context.Background(), topo, fleet.Options{Transport: lr.kill, Retries: -1, Backoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	lr.setEngine(c)
	lr.p = lr.writer.Stats().NumDocs
}

func errorBody(kind, msg string) []byte {
	b, _ := encodeBody(map[string]ErrorBody{"error": {Kind: kind, Message: msg}})
	return b
}

// want is what the model says the row answers key with. A cache hit
// replays a complete answer of the same collection: every shard up.
func (lr *liveRow) want(f *modelFixture, key cache.Key, hit bool) (int, []byte) {
	switch {
	case (key.Doc < 0 || key.Doc >= lr.p) && lr.writer != nil:
		return http.StatusNotFound, errorBody("unknown_doc", fleet.ErrUnknownDoc.Msg)
	case key.Doc < 0 || key.Doc >= lr.p:
		return http.StatusNotFound, errorBody("unknown_doc", core.ErrUnknownDoc.Error())
	}
	q := modelQuery{p: lr.p, key: key}
	if lr.kill != nil && !hit {
		q.shards = lr.shards
		for s := range lr.shards {
			if lr.kill.dead[s] {
				q.dead |= 1 << s
			}
		}
		if home := shard.NewDirectory(modelSeed, lr.shards).Route(key.Doc); lr.kill.dead[home] {
			return http.StatusServiceUnavailable, errorBody("fleet_unavailable", fmt.Sprintf("home shard %d unavailable: %v", home, errShardKilled))
		}
	}
	return http.StatusOK, f.body(q)
}

func serveOnce(s *Server, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// modelTally counts what a run exercised.
type modelTally struct {
	ops            [numOpKinds]int
	answers        map[string]int // /related answers compared, per row
	statuses       map[int]int
	hits, partials int
}

type modelFailure struct {
	row modelRow
	op  int
	msg string
}

// runModel drives ops through fresh engines of rows and returns the
// first answer that is not the model's.
func runModel(t *testing.T, f *modelFixture, rows []modelRow, ops []modelOp, tally *modelTally) *modelFailure {
	t.Helper()
	if tally == nil {
		tally = &modelTally{answers: map[string]int{}, statuses: map[int]int{}}
	}
	live := make([]*liveRow, len(rows))
	for i, row := range rows {
		live[i] = openRow(t, f, row)
		defer live[i].close()
	}
	adds := 0
	for i, op := range ops {
		tally.ops[op.Kind]++
		switch op.Kind {
		case opAdd:
			text := f.addText(adds)
			adds++
			body, _ := json.Marshal(AddRequest{Text: text})
			for _, lr := range live {
				status, got := serveOnce(lr.srv[i%2], "/add", string(body))
				wantStatus, want := http.StatusNotImplemented, errorBody("read_only",
					"the networked fleet serves read-only snapshots; ingest through the offline build, save a new snapshot and restart the shard servers on it")
				if lr.writer != nil {
					lr.writer.Add(text)
				} else {
					wantStatus = http.StatusOK
					want, _ = encodeBody(AddResponse{DocID: lr.p})
					lr.p++
					clear(lr.stored)
				}
				if status != wantStatus || !bytes.Equal(got, want) {
					return &modelFailure{lr.modelRow, i, fmt.Sprintf("%v on the %s server answered %d %s, the model says %d %s", op, serverNames[i%2], status, got, wantStatus, want)}
				}
				tally.statuses[status]++
			}
		case opRelated, opExplain:
			key := cache.Key{Doc: op.Doc, K: op.K, Explain: op.Kind == opExplain}
			if key.K == 0 {
				key.K = 5
			}
			body := fmt.Sprintf(`{"doc_id": %d, "k": %d, "explain": %t}`, op.Doc, op.K, key.Explain)
			for _, lr := range live {
				for si, srv := range lr.srv {
					var hits int64
					if srv.cache != nil {
						hits = srv.cache.Stats().Hits
					}
					status, got := serveOnce(srv, "/related", body)
					hit := srv.cache != nil && srv.cache.Stats().Hits != hits
					partial := bytes.Contains(got, []byte(`"partial_results": true`))
					if hit && (partial || !lr.stored[key]) {
						return &modelFailure{lr.modelRow, i, fmt.Sprintf("%v on the %s server: a cache hit of a partial answer or from before the epoch moved", op, serverNames[si])}
					}
					if wantStatus, want := lr.want(f, key, hit); status != wantStatus || !bytes.Equal(got, want) {
						return &modelFailure{lr.modelRow, i, fmt.Sprintf("%v on the %s server (cache hit %t) answered %d\n%s\nthe model says %d\n%s", op, serverNames[si], hit, status, got, wantStatus, want)}
					}
					if !hit {
						lr.computed(key.Doc)
					}
					if srv.cache != nil && !hit && status == http.StatusOK && !partial {
						lr.stored[key] = true
					}
					tally.answers[lr.name]++
					tally.statuses[status]++
					if hit {
						tally.hits++
					}
					if partial {
						tally.partials++
					}
				}
			}
		case opSaveLoad:
			for _, lr := range live {
				lr.saveLoad(t)
			}
		case opKill, opHeal:
			for _, lr := range live {
				if lr.kill != nil && op.Doc < lr.shards {
					lr.kill.dead[op.Doc] = op.Kind == opKill
				}
			}
		}
	}
	return nil
}

// shrinkModel drops steps from a failing sequence, on the row it failed
// on, for as long as it keeps failing.
func shrinkModel(t *testing.T, f *modelFixture, fail *modelFailure, ops []modelOp) []modelOp {
	t.Helper()
	rows := []modelRow{fail.row}
	ops = ops[:fail.op+1]
	if runModel(t, f, rows, ops, nil) == nil {
		return ops // it fails only beside the other rows
	}
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops); {
			if cand := append(append([]modelOp(nil), ops[:i]...), ops[i+chunk:]...); runModel(t, f, rows, cand, nil) != nil {
				ops = cand
			} else {
				i += chunk
			}
		}
	}
	return ops
}

func TestEnginesMatchModel(t *testing.T) {
	f, rows := theModel(), modelRows
	for _, rc := range modelRegressions {
		for _, row := range rows {
			if row.name != rc.row {
				continue
			}
			if fail := runModel(t, f, []modelRow{row}, rc.ops, nil); fail != nil {
				t.Fatalf("regression %s: %s", literal(rc.row, rc.ops), fail.msg)
			}
		}
	}
	seqs, length := 3, 80
	if testing.Short() {
		seqs, length = 1, 40
	}
	tally := &modelTally{answers: map[string]int{}, statuses: map[int]int{}}
	for seed := range int64(seqs) {
		ops := genModelOps(rand.New(rand.NewSource(seed+1)), length)
		if fail := runModel(t, f, rows, ops, tally); fail != nil {
			t.Fatalf("seed %d, %s, step %d: %s\nshrunk: %s", seed+1, fail.row.name, fail.op, fail.msg, literal(fail.row.name, shrinkModel(t, f, fail, ops)))
		}
	}
	t.Logf("steps %v, statuses %v, %d cache hits, %d partial answers", tally.ops, tally.statuses, tally.hits, tally.partials)
	if testing.Short() {
		return
	}
	for kind, n := range tally.ops {
		if n < 20 {
			t.Errorf("%s ran %d times, want at least 20", opNames[kind], n)
		}
	}
	for _, r := range rows {
		if tally.answers[r.name] < 100 {
			t.Errorf("%s compared %d /related answers, want at least 100", r.name, tally.answers[r.name])
		}
	}
	for _, status := range []int{http.StatusOK, http.StatusNotFound, http.StatusNotImplemented, http.StatusServiceUnavailable} {
		if tally.statuses[status] < 20 {
			t.Errorf("status %d answered %d times, want at least 20", status, tally.statuses[status])
		}
	}
	if tally.hits < 20 || tally.partials < 20 {
		t.Errorf("%d cache hits and %d partial answers, want at least 20 of each", tally.hits, tally.partials)
	}
}
