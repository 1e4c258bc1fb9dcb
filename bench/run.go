package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

const (
	throughputParts = 4  // a closed slice is timed in this many parts, by schedule position
	sloRelatedMS    = 25 // latency limit of a /related
	sloAddMS        = 50 // latency limit of an /add
)

// runConfig is one run: one workload, one seed, one pass.
type runConfig struct {
	w      workload
	seed   int64 // draws the schedule: doc ids
	sz     sizes
	trace  bool      // the per-layer pass instead of the end-to-end pass
	outDir string    // where trace files and temporary shard directories go
	log    io.Writer // human-readable progress and tables
}

// runWorkload sets the service up, drives it, checks its answers and
// returns the pass's metrics: the end-to-end ones untraced, the
// per-layer ones with trace set.
func runWorkload(cfg runConfig) (result, error) {
	w, sz := cfg.w, cfg.sz
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	texts := genTexts(0, sz.posts)
	sched := drawSchedule(cfg.seed, w, sz)
	fmt.Fprintf(cfg.log, "workload %s  seed %d  schedule sha256 %s  posts %d  corpus sha256 %s\n",
		w.name, cfg.seed, sched.hash[:16], sz.posts, hashTexts(texts)[:16])

	obs.Enable()
	clients := make([]*client, runtime.GOMAXPROCS(0))
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	m := make(map[string]float64)

	// Set-up, cold, several times over. The last server stays up and takes
	// the workload's traffic; on a read-only workload the one before it
	// stays up too, as the write side. The per-layer pass leaves setup_s
	// to the other pass and sets up only the servers it needs.
	keep := 2
	if w.addEvery > 0 {
		keep = 1
	}
	n := max(sz.setups, keep)
	if cfg.trace {
		n = keep
	}
	var oracle *core.Pipeline
	var kept []*service
	setups := make([]setupTimes, n)
	for i := range setups {
		built, s, t, err := setUp(texts, w, cfg.outDir, clients[0])
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups[i] = t
		if i == 0 && w.shards <= 1 {
			oracle = built
		}
		if i < n-keep {
			if err := s.stop(); err != nil {
				return result{}, err
			}
			continue
		}
		kept = append(kept, s)
		defer s.stop()
	}
	svc, write := kept[len(kept)-1], kept[0] // one and the same when the workload has adds of its own
	sort.Slice(setups, func(a, b int) bool { return setups[a].total() < setups[b].total() })
	mid := setups[len(setups)/2]
	m["setup_s"] = mid.total().Seconds()
	m["heap_mb"] = mid.heapMB
	m["core.snapshot_write_s"] = mid.write.Seconds()
	m["core.snapshot_load_s"] = mid.load.Seconds()
	m["core.snapshot_mb"] = float64(mid.snapshotBytes) / 1e6
	m["core.snapshot_bytes_per_doc"] = float64(mid.snapshotBytes) / float64(sz.posts)
	if w.shards > 1 {
		// The oracle is always the unsharded pipeline, fresh from Build.
		m["core.build_sharded_s"] = mid.build.Seconds()
		start := time.Now()
		var err error
		if oracle, err = core.Build(texts, core.Config{Seed: corpusSeed}); err != nil {
			return result{}, fmt.Errorf("building the oracle: %w", err)
		}
		m["core.build_s"] = time.Since(start).Seconds()
	} else {
		m["core.build_s"] = mid.build.Seconds()
	}

	// The warm-ups, then the rounds. The cache counters are read around
	// the closed slices: the write side of a read-only workload has a
	// result cache too, which its adds strand.
	var warm []sample
	for i := 0; i < sz.warmRounds; i++ {
		ss, _ := runPhase(svc.base, clients, sched.closed, 0, sz.warmLimit)
		warm = append(warm, ss...)
	}
	writeWarm, _ := runPhase(write.base, clients, sched.writeWarm, 0, 0)
	closed, wrote := make([][]sample, sz.rounds), make([][]sample, sz.rounds)
	delta := make(map[string]float64) // what each counter moved by over the closed slices
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	for i := range closed {
		before := readCounters()
		closed[i], _ = runPhase(svc.base, clients, sched.closed, 0, sz.closedLimit)
		for name, v := range readCounters() {
			delta[name] += float64(v - before[name])
		}
		wrote[i], _ = runPhase(write.base, clients, sched.write, 0, 0)
	}
	roundsWall := time.Since(start)
	runtime.ReadMemStats(&mem1)
	allClosed, allWrote := slices.Concat(closed...), slices.Concat(wrote...)

	// The open phase, in the per-layer pass only: on this shared machine
	// its latencies are the time the processors take to wake between
	// requests as much as the program's, too unsteady to gate a change on
	// (README.md has the spreads), and the end-to-end pass spends the time
	// on more rounds instead.
	var open []sample
	if cfg.trace {
		open, _ = runPhase(svc.base, clients, sched.open, sz.openRPS, sz.openLimit)
	}

	// Correctness. A server that took no write must answer exactly like
	// the oracle. A server that took writes has no oracle built from its
	// collection, so its HTTP answers (cached or not) must equal an
	// in-process recomputation on the pipeline it serves, and every add
	// it acknowledged must be in its collection.
	ref := oracle
	if write == svc {
		ref = svc.p
	}
	probes := probeDocs(sched.closed, sz.probes)
	problems := probeRankings(clients[0], svc.base, ref, probes)
	if write != svc {
		problems = append(problems, probeRankings(clients[0], write.base, write.p, probes)...)
	}
	var acked []int
	for _, ss := range [][]sample{warm, writeWarm, allClosed, allWrote, open} {
		for _, s := range ss {
			if s.addID >= 0 {
				acked = append(acked, s.addID)
			}
		}
	}
	problems = append(problems, checkAdds(clients[0], write.base, sz.posts, acked)...)
	for _, p := range problems {
		fmt.Fprintf(cfg.log, "  INCORRECT: %s\n", p)
	}
	fmt.Fprintf(cfg.log, "  correctness: %d rankings compared on each of %d servers, %d acknowledged adds counted, %d problems\n", len(probes), keep, len(acked), len(problems))

	// A failed operation is a non-200, a transport error or a failed
	// check; the warm-ups are untimed and count for neither side.
	attempted, failed := keep*len(probes)+1, len(problems)
	for _, p := range []struct {
		name    string
		timed   bool
		samples []sample
	}{{"warm-up", false, warm}, {"write warm-up", false, writeWarm}, {"closed", true, allClosed}, {"write side", true, allWrote}, {"open", true, open}} {
		c := countPhase(p.samples)
		fmt.Fprintf(cfg.log, "  phase %-13s sent %6d  succeeded %6d  failed %d\n", p.name, c.sent, c.ok, c.failed)
		if p.timed {
			attempted += c.sent
			failed += c.failed
		}
	}

	// Neighbours on a shared machine only ever take throughput and add
	// latency, and every round sent the same requests: the best of a
	// request's rounds is what the program itself does with it, and the
	// best round's throughput what it sustains (README.md has the spreads
	// measured for this and for the whole-phase and best-window
	// alternatives).
	m["throughput_rps"] = bestThroughput(closed, throughputParts)
	m["related_p50_ms"] = median(bestPerPosition(closed, opRelated))
	m["add_p50_ms"] = median(bestPerPosition(wrote, opAdd))

	if cfg.trace {
		openMetrics(open, m)
		if m["loadgen.late_growth_ms"] > 5 {
			fmt.Fprintf(cfg.log, "  WARNING: the generator fell %.1f ms further behind over the open phase: the rate is beyond what the server sustains here\n", m["loadgen.late_growth_ms"])
		}
	}

	m["cache.lookups"] = delta["cache.hits"] + delta["cache.misses"]
	if m["cache.lookups"] > 0 {
		m["cache.hit_ratio"] = delta["cache.hits"] / m["cache.lookups"]
	}
	m["cache.evictions"] = delta["cache.evictions"]
	m["cache.invalidations"] = delta["cache.invalidations"]
	m["cache.singleflight_followers"] = delta["singleflight.followers"]
	m["runtime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	m["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	m["runtime.alloc_mb_per_s"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1e6 / roundsWall.Seconds()
	m["runtime.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(len(allClosed)+len(allWrote))

	if cfg.trace {
		// Only now, so that the rounds above ran on the same heap as the
		// end-to-end pass's.
		rig := buildLayers(texts, m)
		cacheMicro(m)
		ops := sched.open[:min(sz.replayOps, len(sched.open))]
		spans, bad := replay(svc, oracle, rig, sched, ops, m)
		attempted += len(ops)
		failed += bad
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		tf := traceFile{Workload: w.name, Seed: cfg.seed, Schedule: sched.hash, Spans: spans, SelfTimeNS: selfTimes(spans)}
		if err := os.WriteFile(path, mustJSON(tf), 0o644); err != nil {
			return result{}, err
		}
		fmt.Fprintf(cfg.log, "  trace: %d spans of %d operations in %s\n", len(spans), len(ops), path)
	}
	m["error_ratio"] = float64(failed) / float64(attempted)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: pick(defs, m)}
	printMetrics(cfg.log, defs, res.Metrics)
	if !res.Correct {
		return res, fmt.Errorf("%d of %d operations and checks failed", failed, attempted)
	}
	return res, nil
}

// openWindows is how many windows the open phase is cut into, by
// schedule index.
const openWindows = 24

// openMetrics fills in what the open phase measured: latencies from the
// due time, and the generator's report on itself. A backlog shows as
// lateness that grows from the first window to the last.
func openMetrics(open []sample, m map[string]float64) {
	related := sortedCopy(latenciesMS(open, opRelated))
	adds := sortedCopy(latenciesMS(open, opAdd))
	m["open.related_p50_ms"] = quantile(related, 0.5)
	m["open.add_p50_ms"] = quantile(adds, 0.5)
	m["related_p99_ms"] = lowerQuartile(windowQuantiles(open, opRelated, tailWindows(len(related)), 0.99))
	m["add_p95_ms"] = quantile(adds, 0.95)
	within := 0
	for _, s := range open {
		limit := float64(sloRelatedMS)
		if s.kind == opAdd {
			limit = sloAddMS
		}
		if s.ok && ms(dueLatency(s.due, s.done)) <= limit {
			within++
		}
	}
	m["slo_ok_ratio"] = float64(within) / float64(len(open))

	late := latenessMS(open)
	bounds := windowBounds(len(late), openWindows)
	sortedLate := sortedCopy(late)
	m["loadgen.sent"] = float64(len(open))
	m["loadgen.ok"] = float64(countPhase(open).ok)
	m["loadgen.late_p50_ms"] = quantile(sortedLate, 0.5)
	m["loadgen.late_max_ms"] = sortedLate[len(sortedLate)-1]
	m["loadgen.late_growth_ms"] = median(late[bounds[openWindows-1]:]) - median(late[:bounds[1]])
	all := sortedCopy(append(related, adds...))
	m["loadgen.p99_full_ms"] = quantile(all, 0.99)
	m["loadgen.p999_full_ms"] = quantile(all, 0.999)
}

// probeDocs returns the first n distinct /related doc ids of ops.
func probeDocs(ops []op, n int) []int {
	seen := make(map[int]bool)
	var docs []int
	for _, o := range ops {
		if o.kind == opRelated && !seen[o.doc] {
			seen[o.doc] = true
			if docs = append(docs, o.doc); len(docs) == n {
				break
			}
		}
	}
	return docs
}

// readCounters reads the program's public counters the per-layer
// metrics are deltas of.
func readCounters() map[string]int64 {
	out := make(map[string]int64)
	for _, name := range []string{"cache.hits", "cache.misses", "cache.evictions", "cache.invalidations", "singleflight.followers"} {
		out[name] = obs.GetOrNewCounter(name).Value()
	}
	return out
}
