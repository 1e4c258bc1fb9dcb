package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
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
