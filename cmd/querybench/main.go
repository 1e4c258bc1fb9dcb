// Command querybench measures the Eq 7–9 query path: for a range of
// synthetic index sizes it builds one posting index over a Zipf-shaped
// vocabulary (a few very common terms, a long rare tail — the forum
// shape), then times top-k retrieval through the exhaustive reference
// scan and through the max-score pruned scan, reporting ns/op and the
// postings actually scanned by each (from the index.scan.postings
// counter). The two paths return bit-identical results — proven by the
// property, golden, and shard tests — so the comparison isolates pure
// scan cost. scripts/bench.sh merges the JSON into the per-PR BENCH
// snapshot; with -require-speedup it exits non-zero if pruning fails to
// pay at the largest size.
//
// With -fleet-docs it also measures the serving-topology tax: the same
// forum corpus queried through the unsharded matcher, the in-process
// shard group, and the networked fleet coordinator over the in-process
// transport — three bit-identical ranking paths, so the deltas are pure
// scatter-gather protocol and merge cost (no sockets).
//
// Usage:
//
//	querybench                            # sizes 1000,10000,100000
//	querybench -sizes 1000 -runs 32       # quick smoke
//	querybench -sizes 1000000             # the 1M-unit leg
//	querybench -fleet-docs 10000          # add the fleet-overhead block
//	querybench -require-speedup -out q.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/forum"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/shard"
)

// sizeReport is one corpus-size measurement. The *_postings figures are
// postings scanned per query (averaged over the measured queries);
// PostingsRatio and SpeedupNS are exhaustive/pruned, so >1 means
// pruning wins.
type sizeReport struct {
	Docs               int     `json:"docs"`
	TopK               int     `json:"top_k"`
	ExhaustiveNSPerOp  int64   `json:"exhaustive_ns_per_op"`
	PrunedNSPerOp      int64   `json:"pruned_ns_per_op"`
	ExhaustivePostings int64   `json:"exhaustive_postings_per_op"`
	PrunedPostings     int64   `json:"pruned_postings_per_op"`
	SpeedupNS          float64 `json:"speedup_ns"`
	PostingsRatio      float64 `json:"postings_ratio"`
}

func buildCorpus(units, vocab int, seed int64) (*index.Index, []map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(vocab-1))
	ix := index.New()
	docs := make([][]string, units)
	for u := 0; u < units; u++ {
		n := 20 + rng.Intn(40)
		terms := make([]string, n)
		for i := range terms {
			terms[i] = fmt.Sprintf("t%05d", zipf.Uint64())
		}
		docs[u] = terms
		ix.Add(terms)
	}
	queries := make([]map[string]float64, 64)
	for i := range queries {
		queries[i] = index.TermFrequencies(docs[rng.Intn(units)])
	}
	return ix, queries
}

// measure times fn over runs query invocations (cycling through the
// query set) and returns median ns/op and postings scanned per op.
func measure(queries []map[string]float64, runs int, fn func(q map[string]float64)) (nsPerOp, postingsPerOp int64) {
	scanned := obs.GetOrNewCounter("index.scan.postings")
	// Warm up pools and caches.
	for i := 0; i < len(queries) && i < 8; i++ {
		fn(queries[i])
	}
	times := make([]int64, 0, runs)
	before := scanned.Value()
	for i := 0; i < runs; i++ {
		q := queries[i%len(queries)]
		t0 := time.Now()
		fn(q)
		times = append(times, time.Since(t0).Nanoseconds())
	}
	postingsPerOp = (scanned.Value() - before) / int64(runs)
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	return times[len(times)/2], postingsPerOp
}

// fleetReport is one fleet-overhead measurement: median ns/op for the
// same top-k query through the unsharded matcher, the in-process shard
// group, and the fleet coordinator over LocalTransport. FleetOverhead
// is fleet/single — the cost multiple of serving the collection as a
// networked fleet instead of one index.
type fleetReport struct {
	Docs          int     `json:"docs"`
	Shards        int     `json:"shards"`
	TopK          int     `json:"top_k"`
	SingleNSPerOp int64   `json:"single_ns_per_op"`
	GroupNSPerOp  int64   `json:"group_ns_per_op"`
	FleetNSPerOp  int64   `json:"fleet_ns_per_op"`
	FleetOverhead float64 `json:"fleet_overhead"`
}

// benchFleet builds one forum corpus, serves it three ways, checks the
// rankings agree, and times each path over the same query mix.
func benchFleet(nDocs, shards, topK, runs int, seed int64) (fleetReport, error) {
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: nDocs, Seed: seed})
	docs := make([]*segment.Doc, len(posts))
	for i, p := range posts {
		docs[i] = segment.NewDoc(p.Text)
	}
	mr := match.NewMR("IntentIntent-MR", docs, match.MRConfig{Seed: seed})
	g, err := shard.NewGroup(mr, shards, uint64(seed))
	if err != nil {
		return fleetReport{}, err
	}
	hosts := fleet.HostsForGroup(g)
	lt := fleet.NewLocalTransport()
	var topo fleet.Topology
	for s := 0; s < shards; s++ {
		ep := fmt.Sprintf("s%d", s)
		lt.AddHost(ep, hosts[s])
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: ep})
	}
	c, err := fleet.New(context.Background(), topo, fleet.Options{Transport: lt})
	if err != nil {
		return fleetReport{}, err
	}

	rng := rand.New(rand.NewSource(seed))
	queries := make([]int, 64)
	for i := range queries {
		queries[i] = rng.Intn(nDocs)
	}
	for _, doc := range queries[:4] { // the three paths must agree before timing means anything
		want := mr.Match(doc, topK)
		res, err := c.Query(context.Background(), doc, topK, false)
		if err != nil || res.Partial {
			return fleetReport{}, fmt.Errorf("fleet query doc %d: partial=%v err=%v", doc, res.Partial, err)
		}
		if len(res.Results) != len(want) {
			return fleetReport{}, fmt.Errorf("fleet query doc %d: %d results, single index has %d", doc, len(res.Results), len(want))
		}
		for i := range want {
			if res.Results[i] != want[i] {
				return fleetReport{}, fmt.Errorf("fleet query doc %d diverges from the single index at rank %d", doc, i)
			}
		}
	}

	timePath := func(fn func(doc int)) int64 {
		for i := 0; i < len(queries) && i < 8; i++ {
			fn(queries[i])
		}
		times := make([]int64, 0, runs)
		for i := 0; i < runs; i++ {
			doc := queries[i%len(queries)]
			t0 := time.Now()
			fn(doc)
			times = append(times, time.Since(t0).Nanoseconds())
		}
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
		return times[len(times)/2]
	}
	r := fleetReport{
		Docs: nDocs, Shards: shards, TopK: topK,
		SingleNSPerOp: timePath(func(doc int) { mr.Match(doc, topK) }),
		GroupNSPerOp:  timePath(func(doc int) { g.Match(doc, topK) }),
		FleetNSPerOp:  timePath(func(doc int) { _, _ = c.Query(context.Background(), doc, topK, false) }),
	}
	if r.SingleNSPerOp > 0 {
		r.FleetOverhead = float64(r.FleetNSPerOp) / float64(r.SingleNSPerOp)
	}
	return r, nil
}

func main() {
	sizes := flag.String("sizes", "1000,10000,100000", "comma-separated index sizes (units)")
	runs := flag.Int("runs", 256, "measured queries per path per size")
	vocab := flag.Int("vocab", 2000, "synthetic vocabulary size")
	topK := flag.Int("k", 10, "retrieval depth")
	seed := flag.Int64("seed", 42, "corpus seed")
	out := flag.String("out", "", "output JSON file (default stdout)")
	fleetDocs := flag.Int("fleet-docs", 0,
		"forum corpus size for the fleet-overhead leg (0 skips it; the build segments and clusters the corpus, so this is far costlier per doc than -sizes units)")
	fleetShards := flag.Int("fleet-shards", 4, "shard count for the fleet-overhead leg")
	requireSpeedup := flag.Bool("require-speedup", false,
		"exit 1 unless the pruned path is faster and scans fewer postings at the largest size")
	flag.Parse()

	obs.Enable() // the postings counters are recorded only when obs is on

	var reports []sizeReport
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "querybench: bad size %q\n", s)
			os.Exit(2)
		}
		ix, queries := buildCorpus(n, *vocab, *seed)
		// The exhaustive leg is Query with the pruning gate raised past
		// the corpus: the same scan, pruning off. Nothing else is
		// querying yet, which is when the gate may be moved.
		gate := index.PruneMinUnits
		index.PruneMinUnits = n + 1
		exNS, exPost := measure(queries, *runs, func(q map[string]float64) {
			ix.Query(q, *topK, nil)
		})
		index.PruneMinUnits = gate
		prNS, prPost := measure(queries, *runs, func(q map[string]float64) {
			ix.Query(q, *topK, nil)
		})
		r := sizeReport{
			Docs: n, TopK: *topK,
			ExhaustiveNSPerOp: exNS, PrunedNSPerOp: prNS,
			ExhaustivePostings: exPost, PrunedPostings: prPost,
		}
		if prNS > 0 {
			r.SpeedupNS = float64(exNS) / float64(prNS)
		}
		if prPost > 0 {
			r.PostingsRatio = float64(exPost) / float64(prPost)
		}
		reports = append(reports, r)
		fmt.Fprintf(os.Stderr, "querybench: %d units: exhaustive %dns/%d postings, pruned %dns/%d postings (%.2fx ns, %.2fx postings)\n",
			n, exNS, exPost, prNS, prPost, r.SpeedupNS, r.PostingsRatio)
	}

	payload := map[string]any{"query": reports}
	if *fleetDocs > 0 {
		fr, err := benchFleet(*fleetDocs, *fleetShards, *topK, *runs, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "querybench: fleet leg:", err)
			os.Exit(1)
		}
		payload["fleet"] = fr
		fmt.Fprintf(os.Stderr, "querybench: fleet %d docs x %d shards: single %dns, group %dns, fleet %dns (%.2fx overhead)\n",
			fr.Docs, fr.Shards, fr.SingleNSPerOp, fr.GroupNSPerOp, fr.FleetNSPerOp, fr.FleetOverhead)
	}

	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "querybench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "querybench:", err)
		os.Exit(1)
	}

	if *requireSpeedup {
		last := reports[len(reports)-1]
		if last.PrunedNSPerOp >= last.ExhaustiveNSPerOp {
			fmt.Fprintf(os.Stderr,
				"querybench: FAIL: pruned path is not faster at %d units (pruned %dns/op vs exhaustive %dns/op) — max-score pruning has regressed\n",
				last.Docs, last.PrunedNSPerOp, last.ExhaustiveNSPerOp)
			os.Exit(1)
		}
		if last.PostingsRatio < 2 {
			fmt.Fprintf(os.Stderr,
				"querybench: FAIL: pruned path scans only %.2fx fewer postings at %d units (need >= 2x) — the bound ordering or early termination has regressed\n",
				last.PostingsRatio, last.Docs)
			os.Exit(1)
		}
	}
}
