package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/shard"
)

// TestStalledBodyIsCut: a client that sends its headers and part of its
// body and then goes quiet does not hold its connection: the read
// timeout fails the handler's body read, the client gets the typed 400,
// the connection is closed and the request is counted under
// http.errors. The production timeouts are checked for presence; the
// test shortens ReadTimeout on the same server value to see it fire.
func TestStalledBodyIsCut(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	texts, err := loadCorpus("", "tech", 40, 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(texts, core.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("127.0.0.1:0", serve.New(p, serve.Config{SlowQuery: -1}).Handler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.WriteTimeout <= 30*time.Second {
		t.Fatalf("listener timeouts: header %v, read %v, idle %v, write %v (pprof's default profile window is 30s)",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	srv.ReadTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at Close
	t.Cleanup(func() { srv.Close() })

	errorsBefore := obs.GetOrNewCounter("http.errors").Value()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /related HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"doc_id\": 3, ")
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // the test's own bound, far past the server's
	start := time.Now()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to a stalled body after %v: %v", time.Since(start), err)
	}
	body := new(strings.Builder)
	if _, err := bufio.NewReader(resp.Body).WriteTo(body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.String(), `"kind": "bad_request"`) || !resp.Close {
		t.Fatalf("stalled body answered %d (close %v) %s", resp.StatusCode, resp.Close, body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cut after %v, ReadTimeout is %v", took, srv.ReadTimeout)
	}
	if got := obs.GetOrNewCounter("http.errors").Value(); got != errorsBefore+1 {
		t.Fatalf("http.errors moved by %d, want 1", got-errorsBefore)
	}
	// Cut means closed: the next read finds the end of the stream.
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the connection is still open after the cut")
	}
}

// failingProbes fails every sibling probe to one shard, transiently, and
// counts the attempts.
type failingProbes struct {
	fleet.Transport
	shard    int
	attempts atomic.Int32
}

func (f *failingProbes) Probe(ctx context.Context, ep string, req *fleet.ProbeRequest, deliver func(*fleet.ProbeResponse, error)) {
	if req.Shard != f.shard {
		f.Transport.Probe(ctx, ep, req, deliver)
		return
	}
	f.attempts.Add(1)
	deliver(nil, &fleet.RPCError{Status: http.StatusServiceUnavailable, Kind: "down", Msg: "shard down"})
}

// TestFleetRetriesIsACount: -fleet-retries is the number of retries a
// failing leg gets, 0 included — each one more asked for is one more
// attempt, and 0 is not the coordinator's "0 selects the default 2". A
// shard without a replica has no hedge attempt for a retry to take, so
// at 0 its failing leg is tried once.
func TestFleetRetriesIsACount(t *testing.T) {
	texts, err := loadCorpus("", "tech", 40, 42)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*segment.Doc, len(texts))
	for i, text := range texts {
		docs[i] = segment.NewDoc(text)
	}
	g, err := shard.NewGroup(match.NewMR("IntentIntent-MR", docs, match.MRConfig{Seed: 42}), 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	lt := fleet.NewLocalTransport()
	var topo fleet.Topology
	for s, h := range fleet.HostsForGroup(g) {
		lt.AddHost(fmt.Sprint(s), h)
		topo.Endpoints = append(topo.Endpoints, fleet.ShardEndpoints{Shard: s, Primary: fmt.Sprint(s)})
	}
	attempts := func(flag int) int32 {
		tr := &failingProbes{Transport: lt, shard: 1 - g.Route(0)}
		c, err := fleet.New(context.Background(), topo, fleet.Options{Transport: tr, Retries: legRetries(flag), Backoff: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		if ans, err := c.Query(context.Background(), 0, 5, false); err != nil || !ans.Partial {
			t.Fatalf("-fleet-retries %d: %v, partial %t", flag, err, ans.Partial)
		}
		return tr.attempts.Load()
	}
	none := attempts(0)
	if none != 1 {
		t.Errorf("-fleet-retries 0: %d attempts at a failing leg without a replica, want 1", none)
	}
	for flag := 1; flag <= 3; flag++ {
		if got := attempts(flag); got != none+int32(flag) {
			t.Errorf("-fleet-retries %d: %d attempts at a failing leg, -fleet-retries 0 makes %d", flag, got, none)
		}
	}
}

// TestBuildFlagsBesideLoad: a build flag set beside -load is refused
// with an error naming it — the snapshot is served as it was built, so
// the flag would change nothing — while the serving flags and a build
// without -load pass; so is a negative -n.
func TestBuildFlagsBesideLoad(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		fs.String("load", "", "")
		fs.String("addr", "", "")
		for _, name := range buildFlags {
			fs.String(name, "", "")
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return checkFlags(fs)
	}
	for _, name := range buildFlags {
		if err := parse("-load", "built.idx", "-"+name, "7"); err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-load with -%s: error %v does not name the flag", name, err)
		}
		if err := parse("-"+name, "7"); err != nil {
			t.Errorf("-%s without -load: %v", name, err)
		}
	}
	if err := parse("-load", "built.idx", "-addr", ":9000"); err != nil {
		t.Errorf("-load with -addr: %v", err)
	}
	// A negative -n is refused by name where it used to panic in the
	// corpus generator; -n 0 builds an empty collection.
	if err := parse("-n", "-1"); err == nil || !strings.Contains(err.Error(), "-n -1") {
		t.Errorf("-n -1: error %v, want it refused by name", err)
	}
	if err := parse("-n", "0"); err != nil {
		t.Errorf("-n 0: %v", err)
	}
}
