// Command serve runs the related-post pipeline as a long-running HTTP
// service: it builds the offline phases over a corpus at startup, then
// answers online queries and ingests new posts concurrently, with the
// obs metrics registry (JSON and Prometheus text exposition),
// per-request traces, and pprof exposed for operations. All process
// logging is structured JSON on stderr (log/slog); each API request
// additionally emits one access-log record carrying its trace id. See
// the "Serving over HTTP" section of README.md for the endpoint
// reference and a metrics glossary.
//
// The same binary also runs as one process of a networked shard fleet
// (-shard-role): "shard" serves one or more partitions of a snapshot file
// over the internal probe endpoints, "coordinator" serves the
// same public surface as the single process by scattering over a fleet
// topology file. See the "Networked shard fleet" section of README.md.
//
// Usage:
//
//	serve -addr :8080 -domain tech -n 1000 -seed 42
//	serve -corpus corpus.jsonl                 # cmd/gencorpus output
//	serve -load built.idx                      # cmd/intentmatch -save output, any shard count
//	serve -trace-slow 50ms -trace-rate 5       # capture policy
//	serve -cache-entries 4096 -max-inflight 64 -max-queued 128   # heavy-traffic hygiene
//	serve -shard-role shard -load built.idx -own 0 -addr :9000
//	serve -shard-role coordinator -fleet topology.json -fleet-timeout 1s -addr :8080
//	curl -s localhost:8080/related -d '{"doc_id": 3, "k": 5, "explain": true}'
//	curl -s localhost:8080/metrics?format=prometheus
//	curl -s localhost:8080/debug/traces | jq '.traces[0]'
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/forum"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	corpus := flag.String("corpus", "", "JSONL corpus file (cmd/gencorpus output); empty generates synthetically")
	load := flag.String("load", "",
		"serve a persisted pipeline instead of building: a snapshot file (cmd/intentmatch -save output, of any shard count); the build flags -corpus, -domain, -n, -seed and -shards are refused beside it")
	domain := flag.String("domain", "tech", "synthetic domain: tech, travel, prog, or health")
	n := flag.Int("n", 1000, "synthetic corpus size")
	seed := flag.Int64("seed", 42, "random seed")
	shards := flag.Int("shards", 0,
		"serve the collection partitioned across this many shards with scatter-gather queries (0 or 1 = unsharded; rankings are identical either way)")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond,
		"always capture traces of requests at least this slow (0 captures every request, negative disables)")
	traceRate := flag.Int("trace-rate", 1, "rate-sample up to this many request traces per second (0 disables)")
	traceRing := flag.Int("trace-ring", 0, "retained finished traces (0 = default 256)")
	cacheEntries := flag.Int("cache-entries", 0,
		"bound of the /related result cache, in entries; enables the cache and singleflight collapsing, keyed by (doc, k, explain, collection epoch) so any add invalidates (0 = off)")
	maxInflight := flag.Int("max-inflight", 0,
		"bound on concurrently computing /related queries; excess requests queue up to -max-queued, then shed with a typed 503 + Retry-After (0 = off)")
	maxQueued := flag.Int("max-queued", 0,
		"admission wait-queue depth on top of -max-inflight (0 = shed as soon as the in-flight limit is hit)")
	shardRole := flag.String("shard-role", "",
		"fleet process role: empty (single-process pipeline), shard (serve partitions of a -load snapshot on the internal probe endpoints), or coordinator (scatter-gather over a -fleet topology)")
	own := flag.String("own", "", "shard role: comma-separated shard ids this process serves (default all shards in the snapshot)")
	fleetFile := flag.String("fleet", "", "coordinator role: fleet topology JSON file (fleet.Topology layout)")
	fleetTimeout := flag.Duration("fleet-timeout", 2*time.Second,
		"coordinator: whole-query budget T, explain included; each attempt is cut at T/4, a retry backs off T/80 (doubling, two retries a leg), and a leg hedges to a replica after T/20 until its shard has latency history")
	fleetBootstrap := flag.Duration("fleet-bootstrap", 15*time.Second, "coordinator: how long to keep retrying the topology bootstrap while shard servers come up")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	if err := checkFlags(flag.CommandLine); err != nil {
		fatal("flags", err)
	}

	// Enable metrics before the build so the build.* spans of this
	// process's offline phase are already on /metrics at first scrape.
	obs.Enable()
	stopPoller := obs.StartRuntimePoller(10 * time.Second)
	defer stopPoller()

	scfg := serve.Config{
		Logger:        logger,
		TraceRate:     *traceRate,
		SlowQuery:     *traceSlow,
		TraceRingSize: *traceRing,
		CacheEntries:  *cacheEntries,
		MaxInflight:   *maxInflight,
		MaxQueued:     *maxQueued,
	}
	switch *shardRole {
	case "":
		// Single-process pipeline below.
	case "shard":
		h, err := loadShardHost(*load, *own)
		if err != nil {
			fatal("shard host", err)
		}
		m := h.Meta()
		logger.Info("shard host ready", "path", *load, "own", m.Shards,
			"total_shards", m.TotalShards, "docs", m.Docs, "epoch", m.Epoch)
		runServer(*addr, serve.NewShardServer(h, scfg).Handler(), logger,
			"POST /internal/home, POST /internal/probe, POST /internal/explain, GET /internal/meta, GET /internal/metricsz, GET /metrics, GET /healthz, GET /debug/traces")
		return
	case "coordinator":
		c, err := bootstrapCoordinator(*fleetFile, fleet.Options{
			Transport: fleet.NewHTTPTransport(),
			Timeout:   *fleetTimeout,
		}, *fleetBootstrap, logger)
		if err != nil {
			fatal("coordinator bootstrap", err)
		}
		logger.Info("coordinator ready", "topology", *fleetFile,
			"shards", c.NumShards(), "docs", c.NumDocs(), "epoch", c.SnapshotEpoch())
		runServer(*addr, serve.New(c, scfg).Handler(), logger, publicEndpoints)
		return
	default:
		fatal("flags", fmt.Errorf("unknown -shard-role %q (shard, coordinator)", *shardRole))
	}

	var p *core.Pipeline
	if *load != "" {
		// Serving a built snapshot is the offline→online handoff of Sec 7:
		// the restart path skips the whole build and is bounded by decode
		// speed — the figure the compact layout exists to shrink.
		start := time.Now()
		var err error
		p, err = core.Load(*load)
		if err != nil {
			fatal("load", err)
		}
		st := p.Stats()
		logger.Info("loaded",
			"path", *load,
			"elapsed", time.Since(start).Round(time.Millisecond).String(),
			"docs", st.NumDocs, "clusters", st.NumClusters, "shards", p.Shards())
	} else {
		texts, err := loadCorpus(*corpus, *domain, *n, *seed)
		if err != nil {
			fatal("corpus", err)
		}
		logger.Info("building pipeline", "posts", len(texts))
		start := time.Now()
		p, err = core.Build(texts, core.Config{Seed: *seed, Shards: *shards})
		if err != nil {
			fatal("build", err)
		}
		st := p.Stats()
		logger.Info("built",
			"elapsed", time.Since(start).Round(time.Millisecond).String(),
			"docs", st.NumDocs, "segments", st.NumSegments, "clusters", st.NumClusters,
			"shards", p.Shards(),
			"segment_ms", st.Segmentation.Milliseconds(),
			"group_ms", st.Grouping.Milliseconds(),
			"index_ms", st.Indexing.Milliseconds())
	}

	runServer(*addr, serve.New(p, scfg).Handler(), logger, publicEndpoints)
}

// publicEndpoints is what serve.New answers, over a pipeline and over a
// coordinator alike.
const publicEndpoints = "POST /related, POST /add, GET /stats, GET /metrics, GET /healthz, GET /debug/traces, GET /debug/pprof/"

// runServer serves handler on addr until SIGINT/SIGTERM, then drains
// with a 10s grace period. Shared by all three roles so a fleet process
// shuts down exactly like the single binary.
func runServer(addr string, handler http.Handler, logger *slog.Logger, endpoints string) {
	srv := newHTTPServer(addr, handler)
	go func() {
		logger.Info("serving", "addr", addr, "endpoints", endpoints)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("listen", "err", err)
			os.Exit(1)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
}

// newHTTPServer is the listener every role serves on, with every phase
// of a connection bounded: a client that trickles its headers or stalls
// mid-body is cut by the read timeouts (the handler's body read fails,
// it answers the typed 400, and the request counts under http.errors),
// an idle keep-alive connection is closed, and a response may take as
// long as a /debug/pprof/profile window — net/http/pprof itself refuses
// a ?seconds= at or beyond WriteTimeout, so the default 30 s and
// anything under two minutes still profile.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// buildFlags are the flags only a build reads.
var buildFlags = []string{"corpus", "domain", "n", "seed", "shards"}

// checkFlags refuses a build flag set beside -load (a loaded snapshot is
// served as it was built, so the flag would be ignored) and a negative
// -n; -n 0 serves an empty collection.
func checkFlags(fs *flag.FlagSet) (err error) {
	if n, _ := strconv.Atoi(fs.Lookup("n").Value.String()); n < 0 {
		return fmt.Errorf("-n %d: a corpus size cannot be negative", n)
	}
	if fs.Lookup("load").Value.String() != "" {
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(buildFlags, f.Name) {
				err = fmt.Errorf("-%s is a build flag; -load serves the snapshot as it was built", f.Name)
			}
		})
	}
	return err
}

// loadShardHost builds the shard-role backend: the shards named in own
// (all of them when empty) from a snapshot file, with the statistics
// pools accumulated over the whole collection so scores stay
// collection-global.
func loadShardHost(path, own string) (*fleet.Host, error) {
	if path == "" {
		return nil, fmt.Errorf("-shard-role shard needs -load pointing at a snapshot file")
	}
	var ids []int
	if own != "" {
		for _, part := range strings.Split(own, ",") {
			s, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad -own id %q", part)
			}
			ids = append(ids, s)
		}
	}
	return fleet.LoadHost(path, ids)
}

// bootstrapCoordinator reads the topology file and bootstraps against
// it, retrying while shard servers are still coming up — fleet
// processes are typically started together, and the coordinator is the
// last one to become healthy.
func bootstrapCoordinator(path string, opts fleet.Options, patience time.Duration, logger *slog.Logger) (*fleet.Coordinator, error) {
	if path == "" {
		return nil, fmt.Errorf("-shard-role coordinator needs -fleet pointing at a topology JSON file")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var topo fleet.Topology
	if err := json.Unmarshal(raw, &topo); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	deadline := time.Now().Add(patience)
	for {
		c, err := fleet.New(context.Background(), topo, opts)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		logger.Info("bootstrap retry", "err", err.Error())
		time.Sleep(300 * time.Millisecond)
	}
}

// loadCorpus reads post texts from a cmd/gencorpus JSONL file, or
// generates a synthetic corpus when path is empty.
func loadCorpus(path, domain string, n int, seed int64) ([]string, error) {
	if path == "" {
		d, err := parseDomain(domain)
		if err != nil {
			return nil, err
		}
		posts := forum.Generate(forum.Config{Domain: d, NumPosts: n, Seed: seed})
		texts := make([]string, len(posts))
		for i, p := range posts {
			texts[i] = p.Text
		}
		return texts, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var texts []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // generated posts are small; allow 16MB lines anyway
	for sc.Scan() {
		var rec struct {
			Text string `json:"text"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		texts = append(texts, rec.Text)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("%s: empty corpus", path)
	}
	return texts, nil
}

func parseDomain(name string) (forum.Domain, error) {
	switch name {
	case "tech":
		return forum.TechSupport, nil
	case "travel":
		return forum.Travel, nil
	case "prog", "programming":
		return forum.Programming, nil
	case "health":
		return forum.Health, nil
	}
	return 0, fmt.Errorf("unknown domain %q (tech, travel, prog, health)", name)
}
