package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// service is one pipeline served over loopback HTTP inside the bench
// process, with cmd/serve's production defaults.
type service struct {
	p       *core.Pipeline
	handler http.Handler
	base    string // http://127.0.0.1:<port>
	srv     *http.Server
	served  chan error // Serve's return value
}

func startService(p *core.Pipeline, w workload) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := serve.New(p, serve.Config{
		Logger:       slog.New(slog.NewJSONHandler(io.Discard, nil)),
		TraceRate:    1,
		SlowQuery:    100 * time.Millisecond,
		CacheEntries: w.cacheEntries,
	}).Handler()
	s := &service{
		p:       p,
		handler: h,
		base:    "http://" + ln.Addr().String(),
		srv:     &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		served:  make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its accept loop to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// setupTimes is one cold set-up, split by step. setup_s is the sum.
type setupTimes struct {
	build, write, load, first time.Duration
	snapshotBytes             int64
	heapMB                    float64 // heap the restored pipeline holds, after two forced GCs
}

func (t setupTimes) total() time.Duration { return t.build + t.write + t.load + t.first }

// setUp gets a served pipeline the way an operator does: build the
// offline phases over the corpus, write the snapshot, restore it as
// `serve -load` would, listen, and answer a first /related. The restored
// pipeline is the one served; the freshly built one is returned beside
// it. Sharded pipelines persist as a directory under tmpDir.
func setUp(texts []string, w workload, tmpDir string, c *client) (*core.Pipeline, *service, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	built, err := core.Build(texts, core.Config{Seed: corpusSeed, Shards: w.shards})
	if err != nil {
		return nil, nil, t, fmt.Errorf("building: %w", err)
	}
	t.build = time.Since(start)

	// An unsharded pipeline persists as one stream, a sharded one as a
	// directory; the steps and what is timed are the same.
	var snap bytes.Buffer
	write := func() error { _, err := built.WriteTo(&snap); return err }
	size := func() (int64, error) { return int64(snap.Len()), nil }
	load := func() (*core.Pipeline, error) { return core.ReadPipeline(&snap) }
	if w.shards > 1 {
		dir, err := os.MkdirTemp(tmpDir, "shards-")
		if err != nil {
			return nil, nil, t, err
		}
		defer os.RemoveAll(dir)
		write = func() error { return built.WriteShardDir(dir) }
		size = func() (int64, error) { return dirBytes(dir) }
		load = func() (*core.Pipeline, error) { return core.ReadShardDir(dir) }
	}
	start = time.Now()
	if err := write(); err != nil {
		return nil, nil, t, fmt.Errorf("writing the snapshot: %w", err)
	}
	t.write = time.Since(start)
	if t.snapshotBytes, err = size(); err != nil {
		return nil, nil, t, err
	}
	before := heapAfterGC()
	start = time.Now()
	restored, err := load()
	if err != nil {
		return nil, nil, t, fmt.Errorf("reading the snapshot: %w", err)
	}
	t.load = time.Since(start)
	t.heapMB = heapAfterGC() - before
	runtime.KeepAlive(&snap) // in both readings, so the snapshot bytes cancel out

	start = time.Now()
	svc, err := startService(restored, w)
	if err != nil {
		return nil, nil, t, err
	}
	status, _, err := c.do(svc.base, relatedOp(0))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return nil, nil, t, errors.Join(fmt.Errorf("first request: %w", err), svc.stop())
	}
	t.first = time.Since(start)
	return built, svc, t, nil
}

// heapAfterGC is the live heap in MB once two forced collections have
// finished (the second frees what the first one's finalizers released).
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
