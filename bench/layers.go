package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/segment"
)

// The traced pass measures every layer from outside: it times calls
// into the layer's public functions on structures the bench builds from
// the same corpus, and reads counts as deltas of the program's public
// obs counters at the same boundaries. Nothing inside the program is
// instrumented by the bench.

// layerRig holds the layers below core, built directly so the bench can
// call them: the prepared documents, the multi-ranking matcher that
// core.Build would build over them, and a whole-post index.
type layerRig struct {
	docs  []*segment.Doc
	mr    *match.MR
	whole *index.Index
}

// buildLayers builds the rig and records what building it cost.
func buildLayers(texts []string, m map[string]float64) *layerRig {
	rig := &layerRig{docs: make([]*segment.Doc, len(texts))}

	// Per-post costs, one post at a time on this goroutine, over an evenly
	// spaced sample: the offline build pays them once per post, /add
	// pays them on the request path.
	step := max(1, len(texts)/500)
	var newdoc, greedy []float64
	for i := 0; i < len(texts); i += step {
		start := time.Now()
		d := segment.NewDoc(texts[i])
		newdoc = append(newdoc, us(time.Since(start)))
		start = time.Now()
		segment.Greedy{}.Segment(d)
		greedy = append(greedy, us(time.Since(start)))
	}
	m["segment.newdoc_us"] = median(newdoc)
	m["segment.greedy_us"] = median(greedy)

	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(texts); i += workers {
				rig.docs[i] = segment.NewDoc(texts[i])
			}
		}(w)
	}
	wg.Wait()

	start := time.Now()
	rig.mr = match.NewMR(core.IntentIntentMR.String(), rig.docs, match.MRConfig{Seed: corpusSeed})
	m["match.build_s"] = time.Since(start).Seconds()
	bs := rig.mr.Stats()
	m["match.build_segment_s"] = bs.Segmentation.Seconds()
	m["match.build_vectorize_s"] = bs.Vectorization.Seconds()
	m["cluster.build_s"] = bs.Clustering.Seconds()
	m["match.build_refine_s"] = bs.Refinement.Seconds()
	m["index.build_s"] = bs.Indexing.Seconds()
	m["match.segments"] = float64(bs.NumSegments)
	m["match.clusters"] = float64(bs.NumClusters)

	rig.whole = index.New()
	vocab := make(map[string]struct{})
	adds := make([]float64, len(rig.docs))
	for i, d := range rig.docs {
		terms := d.Terms(0, d.Len())
		start := time.Now()
		rig.whole.Add(terms)
		adds[i] = us(time.Since(start))
		for _, t := range terms {
			vocab[t] = struct{}{}
		}
	}
	m["index.add_us"] = median(adds)
	m["index.terms"] = float64(rig.whole.NumTerms())
	dfs := make([]float64, 0, len(vocab))
	for t := range vocab {
		dfs = append(dfs, float64(rig.whole.DocFreq(t)))
	}
	dfs = sortedCopy(dfs)
	m["index.df_p50"] = quantile(dfs, 0.5)
	m["index.df_max_share"] = dfs[len(dfs)-1] / float64(len(rig.docs))
	return rig
}

// cacheMicro times ResultCache.Get and Put on a full 4096-entry cache
// with reply-sized bodies. It moves the process-wide cache.* counters,
// so it runs outside the window their deltas are read over.
func cacheMicro(m map[string]float64) {
	const entries, n = 4096, 1 << 16
	c := cache.New(entries)
	body := bytes.Repeat([]byte{'x'}, 640)
	key := func(i int) cache.Key { return cache.Key{Doc: i, K: topK, Epoch: 1} }
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Put(key(i), cache.Entry{Body: body, Status: http.StatusOK, Results: topK})
	}
	m["cache.put_ns"] = float64(time.Since(start).Nanoseconds()) / n
	start = time.Now()
	for i := 0; i < n; i++ {
		c.Get(key(n - 1 - i%(entries/2)))
	}
	m["cache.get_ns"] = float64(time.Since(start).Nanoseconds()) / n
}

// tracer keeps the spans of the traced replay in memory.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, request int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, RequestID: request, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

// serveOnce sends one operation through the server's handler in
// process, without a socket.
func serveOnce(h http.Handler, o op) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, o.kind.path(), bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// replay re-executes ops one at a time on this goroutine, one pass per
// layer so that each layer runs with the processor caches it would have
// in a server doing nothing else: the served handler, then straight into
// core (the served pipeline; on a sharded server also the unsharded
// oracle, same ids), match (Match, then its two halves QuerySegs and
// QueryClusterLists, which run the probes one after another where Match
// fans them out) and index. Every call is a span; the spans of one
// operation share its index as request id, and where the bench itself
// composes a layer from smaller calls they nest. It returns the spans,
// per-layer medians in m, and how many calls failed.
func replay(svc *service, oracle *core.Pipeline, rig *layerRig, sched schedule, ops []op, m map[string]float64) ([]span, int) {
	failed := 0
	d := make(map[string][]float64) // metric name → one value per operation
	note := func(name string, v float64) { d[name] = append(d[name], v) }
	tr := &tracer{t0: time.Now()}
	// timed runs call as one root span of operation i.
	timed := func(name string, i int, call func()) float64 {
		id := tr.begin(name, -1, i)
		call()
		return us(tr.end(id))
	}

	// The handler, first untimed: where the traffic has adds they stranded
	// the result cache, and this pass leaves it as a round finds it.
	for _, o := range ops {
		if serveOnce(svc.handler, o).Code != http.StatusOK {
			failed++
		}
	}
	// The handler again, as spans, and straight into core on the pipeline
	// being served. core's call for an operation follows the handler's at
	// once when the handler had to compute (the difference of the two is
	// the handler's own time, and minutes apart the machine's speed would
	// drift between them), and waits for a pass of its own after a cache
	// hit, which never reached core and should not find the caches cold.
	// The index counters move only inside core here, so their deltas are
	// that call's postings.
	sharded := svc.p.Shards() > 1
	inner := "core.related"
	if sharded {
		inner = "shard.related"
	}
	hits := obs.GetOrNewCounter("cache.hits")
	scanned := obs.GetOrNewCounter("index.scan.postings")
	skipped := obs.GetOrNewCounter("index.prune.postings_skipped")
	ctx := context.Background()
	direct := func(i int, o op) float64 {
		scanned0, skipped0 := scanned.Value(), skipped.Value()
		below := timed(inner, i, func() { svc.p.RelatedContext(ctx, o.doc, topK) })
		note(inner+"_us", below)
		note("index.postings_scanned_per_query", float64(scanned.Value()-scanned0))
		note("index.postings_skipped_per_query", float64(skipped.Value()-skipped0))
		if sharded {
			note("core.related_us", timed("core.related", i, func() { oracle.RelatedContext(ctx, o.doc, topK) }))
		}
		return below
	}
	hit := make([]bool, len(ops))
	for i, o := range ops {
		var rec *httptest.ResponseRecorder
		hits0 := hits.Value()
		served := timed("serve."+o.kind.path()[1:], i, func() { rec = serveOnce(svc.handler, o) })
		hit[i] = hits.Value() > hits0
		if rec.Code != http.StatusOK {
			failed++
		}
		if o.kind == opAdd {
			note("serve.add_us", served)
			continue
		}
		note("serve.related_us", served)
		note("serve.response_bytes", float64(rec.Body.Len()))
		if !hit[i] {
			served -= direct(i, o)
		}
		note("serve.self_us", served)
	}
	for i, o := range ops {
		switch {
		case o.kind == opAdd:
			var err error
			note("core.add_us", timed("core.add", i, func() { _, err = svc.p.Add(sched.adds[o.doc]) }))
			if err != nil {
				failed++
			}
		case hit[i]:
			direct(i, o)
		}
	}

	// match, on the bench's own matcher over the same corpus.
	depth := rig.mr.Config().ListDepth(topK)
	for i, o := range ops {
		if o.kind == opRelated {
			note("match.related_us", timed("match.related", i, func() { rig.mr.Match(o.doc, topK) }))
		}
	}
	for i, o := range ops {
		if o.kind == opAdd {
			add := tr.begin("match.add", -1, i)
			id := tr.begin("segment.newdoc", add, i)
			doc := segment.NewDoc(sched.adds[o.doc])
			tr.end(id)
			id = tr.begin("match.add_prepare", add, i)
			pending := rig.mr.PrepareAdd(doc)
			note("match.add_prepare_us", us(tr.end(id)))
			id = tr.begin("match.add_commit", add, i)
			pending.Commit()
			note("match.add_commit_us", us(tr.end(id)))
			tr.end(add)
			continue
		}
		halves := tr.begin("match.halves", -1, i)
		id := tr.begin("match.prep", halves, i)
		probes := rig.mr.QuerySegs(o.doc)
		note("match.prep_us", us(tr.end(id)))
		id = tr.begin("match.alg1", halves, i)
		rig.mr.QueryClusterLists(probes, depth, o.doc, nil, nil)
		note("match.alg1_us", us(tr.end(id)))
		tr.end(halves)
		note("match.lists_per_query", float64(len(probes)))
	}

	// index, on the whole-post index.
	for i, o := range ops {
		if o.kind == opAdd {
			continue
		}
		doc := rig.docs[o.doc]
		tf := index.TermFrequencies(doc.Terms(0, doc.Len()))
		note("index.query_us", timed("index.query", i, func() {
			rig.whole.Query(tf, depth, func(unit int) bool { return unit == o.doc })
		}))
	}

	for name, vs := range d {
		m[name] = median(vs)
	}
	// Counts are totals over the replay, so per query they are means.
	for _, name := range []string{"index.postings_scanned_per_query", "index.postings_skipped_per_query", "match.lists_per_query"} {
		m[name] = mean(d[name])
	}
	if sharded {
		m["shard.tax_ratio"] = m["shard.related_us"] / m["core.related_us"]
	}
	if s, k := m["index.postings_scanned_per_query"], m["index.postings_skipped_per_query"]; s+k > 0 {
		m["index.scan_ratio"] = s / (s + k)
	}
	// What recording adds to a handler call is its one span. Replaying
	// with and without spans and dividing the medians measures which pass
	// ran on the warmer processor instead (0.67 to 1.10 here), so the
	// span's cost is timed on its own and set against the call's.
	const empty = 100_000
	scratch := &tracer{t0: time.Now(), spans: make([]span, 0, empty)}
	start := time.Now()
	for i := 0; i < empty; i++ {
		scratch.end(scratch.begin("empty", -1, i))
	}
	perSpanUS := us(time.Since(start)) / empty
	if served := m["serve.related_us"]; served > 0 {
		m["trace.overhead_ratio"] = (served + perSpanUS) / served
	}
	return tr.spans, failed
}

// traceFile is what -trace writes: the replay's spans, and each span's
// self time (its duration minus what its children cover) keyed by id.
type traceFile struct {
	Workload   string        `json:"workload"`
	Seed       int64         `json:"seed"`
	Schedule   string        `json:"schedule_sha256"`
	Spans      []span        `json:"spans"`
	SelfTimeNS map[int]int64 `json:"self_time_ns"`
}
