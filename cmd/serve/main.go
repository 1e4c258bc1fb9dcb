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
// Every flag is a row of options.table, which also names the modes
// that read it; a flag set where nothing reads it is refused by name.
// README.md's cmd/serve flag table ("Serving over HTTP") is rendered
// from the rows.
//
// Usage:
//
//	gencorpus -domain tech -n 1000 | serve -corpus - -addr :8080
//	serve -corpus corpus.jsonl -seed 42        # cmd/gencorpus output
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
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/knob"
	"repro/internal/obs"
	"repro/internal/serve"
)

// options are the flags; table declares them.
type options struct {
	addr, corpus, load, shardRole, own, fleet               string
	shards, traceRate, cacheEntries, maxInflight, maxQueued int
	seed                                                    int64
	traceSlow, fleetTimeout, fleetBootstrap                 time.Duration
}

// The modes, one bit each: the flags -shard-role, -load and -corpus
// choose one, in that order of precedence, and one of them must be set.
const (
	corpusBuild knob.Modes = 1 << iota
	loaded
	shardRole
	coordinatorRole

	public = corpusBuild | loaded | coordinatorRole // serve.New's modes
	every  = public | shardRole
)

var modeNames = []string{"-corpus build", "-load", "-shard-role shard", "-shard-role coordinator"}

// table is every flag, each declared once; README's cmd/serve knob
// table is rendered from it.
func (o *options) table() *knob.Table {
	return &knob.Table{Modes: modeNames, Rows: []knob.Row{
		{Name: "addr", Value: &o.addr, Default: ":8080", Modes: every,
			Help: "listen address"},
		{Name: "corpus", Value: &o.corpus, Default: "", Modes: corpusBuild,
			Help: "build from this JSONL corpus file (cmd/gencorpus output; - reads stdin)"},
		{Name: "load", Value: &o.load, Default: "", Modes: loaded | shardRole,
			Help: "serve a persisted pipeline instead of building: a snapshot file of any shard count (cmd/intentmatch -save output)"},
		{Name: "seed", Value: &o.seed, Default: int64(42), Modes: corpusBuild,
			Help: "k-means seed of the build"},
		{Name: "shards", Value: &o.shards, Default: 0, Modes: corpusBuild, Range: knob.AtLeast(0),
			Help: "partition the collection across this many shards, queried by scatter-gather (0 or 1 = unsharded; rankings are identical either way)"},
		{Name: "trace-slow", Value: &o.traceSlow, Default: 100 * time.Millisecond, Modes: every,
			Help: "always capture traces of requests at least this slow (0 captures every request; a negative duration such as -1ns disables)"},
		{Name: "trace-rate", Value: &o.traceRate, Default: 1, Modes: every, Range: knob.AtLeast(0),
			Help: "rate-sample up to this many request traces per second (0 disables)"},
		{Name: "cache-entries", Value: &o.cacheEntries, Default: 0, Modes: public, Range: knob.AtLeast(0),
			Help: "bound of the /related result cache, in entries; enables the cache and singleflight collapsing, keyed by (doc, k, explain, collection epoch) so any add invalidates (0 = off)"},
		{Name: "max-inflight", Value: &o.maxInflight, Default: 0, Modes: public, Range: knob.AtLeast(0),
			Help: "bound on concurrently computing /related queries; excess requests queue up to -max-queued, then shed with a typed 503 + Retry-After (0 = off)"},
		{Name: "max-queued", Value: &o.maxQueued, Default: 0, Modes: public, Range: knob.AtLeast(0), Needs: "max-inflight",
			Help: "admission wait-queue depth on top of -max-inflight (0 = shed as soon as the in-flight limit is hit)"},
		{Name: "shard-role", Value: &o.shardRole, Default: "", Modes: every, Range: knob.OneOf("", "shard", "coordinator"),
			Help: "fleet process role: empty for the single process, shard (serve partitions of a -load snapshot on the internal probe endpoints) or coordinator (scatter-gather over a -fleet topology)"},
		{Name: "own", Value: &o.own, Default: "", Modes: shardRole,
			Help: "comma-separated shard ids this process serves (empty: every shard in the snapshot)"},
		{Name: "fleet", Value: &o.fleet, Default: "", Modes: coordinatorRole,
			Help: "fleet topology JSON file (fleet.Topology layout)"},
		{Name: "fleet-timeout", Value: &o.fleetTimeout, Default: 2 * time.Second, Modes: coordinatorRole, Range: knob.AtLeast(1),
			Help: "whole-query budget T, explain included; each attempt is cut at T/4, a retry backs off T/80 (doubling, two retries a leg), and a leg whose shard has a replica hedges to it once its first attempt has run T/20"},
		{Name: "fleet-bootstrap", Value: &o.fleetBootstrap, Default: 15 * time.Second, Modes: coordinatorRole, Range: knob.AtLeast(0),
			Help: "how long to keep retrying the topology bootstrap while shard servers come up"},
	}}
}

// mode is the mode the flags choose.
func (o *options) mode() knob.Modes {
	switch {
	case o.shardRole == "shard":
		return shardRole
	case o.shardRole == "coordinator":
		return coordinatorRole
	case o.load != "":
		return loaded
	}
	return corpusBuild
}

// parseFlags parses args and refuses, by name, a flag set outside its
// range, in a mode that does not read it, or without the flag it needs.
func parseFlags(args []string) (*options, error) {
	o := new(options)
	return o, o.table().Parse("serve", args, o.mode)
}

func main() {
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fatal("flags", err)
	}

	// Enable metrics before the build so the build.* spans of this
	// process's offline phase are already on /metrics at first scrape.
	obs.Enable()
	stopPoller := obs.StartRuntimePoller(10 * time.Second)
	defer stopPoller()

	handler, err := o.handler(logger, os.Stdin)
	if err != nil {
		fatal("startup", err)
	}
	runServer(newHTTPServer(o.addr, handler), logger)
}

// handler is what the mode serves: a shard server over the owned
// partitions of a snapshot, or serve.New over a coordinator, a loaded
// pipeline or one built from the corpus, read from stdin when it is "-".
func (o *options) handler(logger *slog.Logger, stdin io.Reader) (http.Handler, error) {
	cfg := serve.Config{
		Logger:       logger,
		TraceRate:    o.traceRate,
		SlowQuery:    o.traceSlow,
		CacheEntries: o.cacheEntries,
		MaxInflight:  o.maxInflight,
		MaxQueued:    o.maxQueued,
	}
	var eng serve.Engine
	switch o.mode() {
	case shardRole:
		h, err := loadShardHost(o.load, o.own)
		if err != nil {
			return nil, fmt.Errorf("shard host: %w", err)
		}
		m := h.Meta()
		logger.Info("shard host ready", "path", o.load, "own", m.Shards,
			"total_shards", m.TotalShards, "docs", m.Docs, "epoch", m.Epoch)
		return serve.NewShardServer(h, cfg).Handler(), nil
	case coordinatorRole:
		c, err := bootstrapCoordinator(o.fleet, fleet.Options{
			Transport: fleet.NewHTTPTransport(),
			Timeout:   o.fleetTimeout,
		}, o.fleetBootstrap, logger)
		if err != nil {
			return nil, fmt.Errorf("coordinator bootstrap: %w", err)
		}
		logger.Info("coordinator ready", "topology", o.fleet,
			"shards", c.NumShards(), "docs", c.NumDocs(), "epoch", c.SnapshotEpoch())
		eng = c
	case loaded:
		// Serving a built snapshot is the offline→online handoff of Sec 7:
		// the restart path skips the whole build and is bounded by decode
		// speed — the figure the compact layout exists to shrink.
		start := time.Now()
		p, err := core.Load(o.load)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		st := p.Stats()
		logger.Info("loaded",
			"path", o.load,
			"elapsed", time.Since(start).Round(time.Millisecond).String(),
			"docs", st.NumDocs, "clusters", st.NumClusters, "shards", p.Shards())
		eng = p
	default:
		texts, err := readCorpus(o.corpus, stdin)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		logger.Info("building pipeline", "posts", len(texts))
		start := time.Now()
		p, err := core.Build(texts, core.Config{Seed: o.seed, Shards: o.shards})
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		st := p.Stats()
		logger.Info("built",
			"elapsed", time.Since(start).Round(time.Millisecond).String(),
			"docs", st.NumDocs, "segments", st.NumSegments, "clusters", st.NumClusters,
			"shards", p.Shards(),
			"segment_ms", st.Segmentation.Milliseconds(),
			"group_ms", st.Grouping.Milliseconds(),
			"index_ms", st.Indexing.Milliseconds())
		eng = p
	}
	return serve.New(eng, cfg).Handler(), nil
}

// runServer serves srv until SIGINT/SIGTERM, then drains with a 10s
// grace period. Every mode shuts down the same way.
func runServer(srv *http.Server, logger *slog.Logger) {
	go func() {
		logger.Info("serving", "addr", srv.Addr)
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

// readCorpus reads the post texts of the JSON-lines corpus at path, or
// of stdin when path is "-".
func readCorpus(path string, stdin io.Reader) ([]string, error) {
	if path == "" {
		return nil, errors.New("nothing to serve: build with -corpus <file> (- reads stdin), or set -load or -shard-role")
	}
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		stdin = f
	}
	return core.ReadCorpus(stdin)
}
