package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/forum"
	"repro/internal/knob"
	"repro/internal/obs"
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
	corpus, _ := corpusFile(t, 40, 42)
	srv := newHTTPServer("127.0.0.1:0", start(t, "-corpus", corpus))
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

// modeArgs are the flags that choose each mode, with placeholder
// files: parseFlags opens none of them.
var modeArgs = map[knob.Modes][]string{
	corpusBuild:     {"-corpus", "c.jsonl"},
	loaded:          {"-load", "built.idx"},
	shardRole:       {"-shard-role", "shard", "-load", "built.idx"},
	coordinatorRole: {"-shard-role", "coordinator", "-fleet", "topology.json"},
}

// ignoredBefore are the (flag, mode) pairs that serve started up with
// and then ignored before the knob table, less those whose flag or mode
// is gone; each must stay refused.
var ignoredBefore = []struct {
	flag string
	mode knob.Modes
}{
	{"own", corpusBuild}, {"own", loaded}, {"own", coordinatorRole},
	{"fleet", corpusBuild}, {"fleet", loaded}, {"fleet", shardRole},
	{"fleet-timeout", corpusBuild}, {"fleet-timeout", loaded}, {"fleet-timeout", shardRole},
	{"fleet-bootstrap", corpusBuild}, {"fleet-bootstrap", loaded}, {"fleet-bootstrap", shardRole},
	{"cache-entries", shardRole}, {"max-inflight", shardRole}, {"max-queued", shardRole},
	{"load", coordinatorRole}, {"corpus", coordinatorRole}, {"seed", coordinatorRole}, {"shards", coordinatorRole},
}

// sample is a value of r inside its range and off its default.
func sample(r knob.Row) string {
	switch d := r.Default.(type) {
	case bool:
		return strconv.FormatBool(!d)
	case string:
		if r.Range != nil {
			return r.Range.OneOf[slices.IndexFunc(r.Range.OneOf, func(v string) bool { return v != d })]
		}
		return d + "x"
	case time.Duration:
		return (d + time.Second).String()
	case int:
		return strconv.Itoa(d + 1)
	}
	return strconv.FormatInt(r.Default.(int64)+1, 10)
}

// outside are values of r that its range refuses.
func outside(r knob.Row) []string {
	if r.Range == nil {
		return nil
	}
	if r.Range.OneOf != nil {
		return []string{"bogus"}
	}
	format := func(v int64) string {
		if _, ok := r.Default.(time.Duration); ok {
			return time.Duration(v).String()
		}
		return strconv.FormatInt(v, 10)
	}
	vals := []string{format(r.Range.Min - 1)}
	if r.Range.Max != math.MaxInt64 {
		vals = append(vals, format(r.Range.Max+1))
	}
	return vals
}

// namesFlag reports whether err is an error that begins with -name.
func namesFlag(err error, name string) bool {
	return err != nil && (strings.HasPrefix(err.Error(), "-"+name+" ") || strings.HasPrefix(err.Error(), "-"+name+":"))
}

// TestFlagRefusals is generated from the rows: every flag set in every
// mode that does not read it, every value outside a row's range and
// every flag set without the flag it needs is refused with an error
// that names it, while each mode's own flags, at their defaults and at
// another value, pass.
func TestFlagRefusals(t *testing.T) {
	rows := new(options).table().Rows
	refused := map[string]bool{}
	for m, base := range modeArgs {
		o, err := parseFlags(base)
		if err != nil || o.mode() != m {
			t.Fatalf("%v: mode %b, error %v; want mode %b and no error", base, o.mode(), err, m)
		}
		for _, r := range rows {
			args := append(slices.Clone(base), "-"+r.Name, sample(r))
			o, err := parseFlags(args)
			switch {
			case o.mode() != m: // the flag chooses another mode
			case r.Modes&m == 0:
				if !namesFlag(err, r.Name) {
					t.Errorf("%v: error %v, want -%s refused by name", args, err, r.Name)
				}
				refused[fmt.Sprint(r.Name, m)] = true
			case r.Needs != "":
				if !namesFlag(err, r.Name) {
					t.Errorf("%v: error %v, want -%s refused without -%s", args, err, r.Name, r.Needs)
				}
				if _, err := parseFlags(append(args, "-"+r.Needs, "1")); err != nil {
					t.Errorf("%v -%s 1: %v", args, r.Needs, err)
				}
			case err != nil:
				t.Errorf("%v: %v", args, err)
			}
			if r.Modes&m == 0 {
				continue
			}
			for _, v := range outside(r) {
				args := append(slices.Clone(base), "-"+r.Name, v)
				if _, err := parseFlags(args); !namesFlag(err, r.Name) {
					t.Errorf("%v: error %v, want -%s %s refused by name", args, err, r.Name, v)
				}
			}
		}
	}
	for _, p := range ignoredBefore {
		if !refused[fmt.Sprint(p.flag, p.mode)] {
			t.Errorf("-%s is not refused in mode %b", p.flag, p.mode)
		}
	}
}

// TestREADMEKnobTable holds README's cmd/serve knob table to the rows.
func TestREADMEKnobTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- knobs: cmd/serve -->\n", "<!-- /knobs -->"
	_, rest, _ := strings.Cut(string(raw), begin)
	got, _, _ := strings.Cut(rest, end)
	if want := new(options).table().Markdown(); got != want {
		t.Errorf("README.md's table between %q and %q is not the rows'; it should read:\n%s", begin, end, want)
	}
}

// quiet is a logger that drops everything.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// corpusFile writes n generated posts as a JSON-lines corpus and
// returns its path and its bytes.
func corpusFile(t *testing.T, n int, seed int64) (string, []byte) {
	var b bytes.Buffer
	for _, p := range forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: n, Seed: seed}) {
		line, _ := json.Marshal(map[string]string{"text": p.Text})
		b.Write(append(line, '\n'))
	}
	path := filepath.Join(t.TempDir(), "c.jsonl")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, b.Bytes()
}

// start builds what args serve, or fails the test.
func start(t *testing.T, args ...string) http.Handler {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	h, err := o.handler(quiet, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// call sends one request to h and returns the status and body.
func call(h http.Handler, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// field reads one dotted path out of h's JSON reply to GET path.
func field(t *testing.T, h http.Handler, path, key string) any {
	t.Helper()
	code, body := call(h, http.MethodGet, path, "")
	var v any
	if err := json.Unmarshal([]byte(body), &v); code != http.StatusOK || err != nil {
		t.Fatalf("GET %s: %d %v %s", path, code, err, body)
	}
	for _, k := range strings.Split(key, ".") {
		m, _ := v.(map[string]any)
		v = m[k]
	}
	return v
}

// related is h's /related body for doc 3.
func related(h http.Handler) string {
	_, body := call(h, http.MethodPost, "/related", `{"doc_id": 3, "k": 5}`)
	return body
}

// traces is how many traces h keeps after five /related requests.
func traces(t *testing.T, h http.Handler) int {
	for i := 0; i < 5; i++ {
		related(h)
	}
	return len(field(t, h, "/debug/traces", "traces").([]any))
}

// TestEveryFlagChangesAnOutcome: a flag stays only if a value other
// than its default changes what the process does. One case a row,
// each against the default; a row without a case fails.
func TestEveryFlagChangesAnOutcome(t *testing.T) {
	corpus, raw := corpusFile(t, 30, 5)
	texts, err := core.ReadCorpus(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "built.idx")
	p, err := core.Build(texts, core.Config{Seed: 42, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(snap); err != nil {
		t.Fatal(err)
	}
	// A server of one of the snapshot's two shards, a topology over
	// two primaries, and a fleet of both.
	shard := func(t *testing.T, own string, wrap func(http.Handler) http.Handler) string {
		h := start(t, "-shard-role", "shard", "-load", snap, "-own", own)
		if wrap != nil {
			h = wrap(h)
		}
		s := httptest.NewServer(h)
		t.Cleanup(s.Close)
		return s.URL
	}
	topology := func(t *testing.T, primary0, primary1 string) string {
		path := filepath.Join(t.TempDir(), "topology.json")
		topo := fmt.Sprintf(`{"endpoints": [{"shard": 0, "primary": %q}, {"shard": 1, "primary": %q}]}`, primary0, primary1)
		if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fleetTopo := func(t *testing.T) string { return topology(t, shard(t, "0", nil), shard(t, "1", nil)) }
	corpus40, _ := corpusFile(t, 40, 42)
	small := start(t, "-corpus", corpus40)
	cases := map[string]func(t *testing.T){
		"addr": func(t *testing.T) {
			o, _ := parseFlags([]string{"-corpus", corpus})
			changed, _ := parseFlags([]string{"-corpus", corpus, "-addr", "127.0.0.1:0"})
			if a, b := newHTTPServer(o.addr, nil).Addr, newHTTPServer(changed.addr, nil).Addr; a != ":8080" || b != "127.0.0.1:0" {
				t.Errorf("listening on %s and %s", a, b)
			}
		},
		"corpus": func(t *testing.T) {
			o, _ := parseFlags(nil)
			if _, err := o.handler(quiet, nil); err == nil || !strings.Contains(err.Error(), "-corpus") || !strings.Contains(err.Error(), "-load") || !strings.Contains(err.Error(), "-shard-role") {
				t.Errorf("no -corpus, -load or -shard-role: %v", err)
			}
			if got := field(t, start(t, "-corpus", corpus), "/stats", "num_docs"); got != 30.0 {
				t.Errorf("-corpus of 30 posts serves %v documents", got)
			}
		},
		"load": func(t *testing.T) {
			h := start(t, "-load", snap)
			if docs, shards := field(t, h, "/stats", "num_docs"), field(t, h, "/stats", "shards"); docs != 30.0 || shards != 2.0 {
				t.Errorf("-load of a 30-post 2-shard snapshot serves %v documents in %v shards", docs, shards)
			}
		},
		"seed": func(t *testing.T) {
			if related(start(t, "-corpus", corpus40, "-seed", "7")) == related(small) {
				t.Error("-seed 7 answers as -seed 42 does")
			}
		},
		"shards": func(t *testing.T) {
			if got := field(t, start(t, "-corpus", corpus40, "-shards", "3"), "/stats", "shards"); got != 3.0 {
				t.Errorf("-shards 3 serves %v shards", got)
			}
		},
		"trace-slow": func(t *testing.T) {
			if a, b := traces(t, small), traces(t, start(t, "-corpus", corpus40, "-trace-slow", "0")); a > 2 || b != 5 {
				t.Errorf("5 requests keep %d traces by default and %d under -trace-slow 0", a, b)
			}
			if got := traces(t, start(t, "-corpus", corpus40, "-trace-slow", "-1ns", "-trace-rate", "0")); got != 0 {
				t.Errorf("5 requests keep %d traces under -trace-slow -1ns -trace-rate 0", got)
			}
		},
		"trace-rate": func(t *testing.T) {
			if a, b := traces(t, small), traces(t, start(t, "-corpus", corpus40, "-trace-rate", "0")); a == 0 || b != 0 {
				t.Errorf("5 requests keep %d traces by default and %d under -trace-rate 0", a, b)
			}
		},
		"cache-entries": func(t *testing.T) {
			if a, b := field(t, small, "/stats", "cache"), field(t, start(t, "-corpus", corpus40, "-cache-entries", "64"), "/stats", "cache.capacity"); a != nil || b != 64.0 {
				t.Errorf("/stats cache block %v by default, capacity %v under -cache-entries 64", a, b)
			}
		},
		"max-inflight": func(t *testing.T) {
			if a, b := field(t, small, "/stats", "admission"), field(t, start(t, "-corpus", corpus40, "-max-inflight", "2"), "/stats", "admission.max_inflight"); a != nil || b != 2.0 {
				t.Errorf("/stats admission block %v by default, max_inflight %v under -max-inflight 2", a, b)
			}
		},
		"max-queued": func(t *testing.T) {
			h := start(t, "-corpus", corpus40, "-max-inflight", "2", "-max-queued", "3")
			if got := field(t, h, "/stats", "admission.max_queued"); got != 3.0 {
				t.Errorf("-max-queued 3 admits a queue of %v", got)
			}
		},
		"shard-role": func(t *testing.T) {
			shard := start(t, "-shard-role", "shard", "-load", snap)
			if a, _ := call(small, http.MethodGet, fleet.PathMeta, ""); a == http.StatusOK {
				t.Error("the single process answers /internal/meta")
			}
			if got := field(t, shard, fleet.PathMeta, "total_shards"); got != 2.0 {
				t.Errorf("a shard server's meta has %v total shards", got)
			}
		},
		"own": func(t *testing.T) {
			all := field(t, start(t, "-shard-role", "shard", "-load", snap), fleet.PathMeta, "shards")
			one := field(t, start(t, "-shard-role", "shard", "-load", snap, "-own", "1"), fleet.PathMeta, "shards")
			if fmt.Sprint(all, one) != "[0 1] [1]" {
				t.Errorf("serving shards %v by default and %v under -own 1", all, one)
			}
		},
		"fleet": func(t *testing.T) {
			o, _ := parseFlags([]string{"-shard-role", "coordinator"})
			if _, err := o.handler(quiet, nil); err == nil || !strings.Contains(err.Error(), "-fleet") {
				t.Errorf("a coordinator without -fleet: %v", err)
			}
			h := start(t, "-shard-role", "coordinator", "-fleet", fleetTopo(t))
			if related(h) != related(start(t, "-load", snap)) {
				t.Error("the coordinator answers otherwise than the snapshot it scatters over")
			}
		},
		"fleet-timeout": func(t *testing.T) {
			// Both shards answer probes 150ms late, so doc 3's sibling
			// does: inside the default budget's 500ms attempts, past the
			// whole of a 100ms budget.
			slow := func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == fleet.PathProbe {
						time.Sleep(150 * time.Millisecond)
					}
					h.ServeHTTP(w, r)
				})
			}
			topo := topology(t, shard(t, "0", slow), shard(t, "1", slow))
			missing := func(args ...string) string {
				_, body := call(start(t, append([]string{"-shard-role", "coordinator", "-fleet", topo}, args...)...), http.MethodPost, "/related", `{"doc_id": 3, "k": 5}`)
				var v struct {
					Missing []int `json:"shards_missing"`
				}
				if err := json.Unmarshal([]byte(body), &v); err != nil {
					t.Fatalf("/related: %v: %s", err, body)
				}
				return fmt.Sprint(v.Missing)
			}
			if a, b := missing(), missing("-fleet-timeout", "100ms"); a != "[]" || (b != "[0]" && b != "[1]") {
				t.Errorf("shards missing %s at the default budget and %s at -fleet-timeout 100ms; want none and the sibling", a, b)
			}
		},
		"fleet-bootstrap": func(t *testing.T) {
			// Shard 0 answers 503 until it is ready: the coordinator comes
			// up only if it keeps retrying.
			var ready atomic.Bool
			shard0 := start(t, "-shard-role", "shard", "-load", snap, "-own", "0")
			late := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !ready.Load() {
					http.Error(w, "starting", http.StatusServiceUnavailable)
					return
				}
				shard0.ServeHTTP(w, r)
			}))
			t.Cleanup(late.Close)
			topo := topology(t, late.URL, shard(t, "1", nil))
			o, _ := parseFlags([]string{"-shard-role", "coordinator", "-fleet", topo, "-fleet-bootstrap", "0"})
			if _, err := o.handler(quiet, nil); err == nil {
				t.Error("-fleet-bootstrap 0 bootstrapped against a shard that is not ready")
			}
			time.AfterFunc(200*time.Millisecond, func() { ready.Store(true) })
			start(t, "-shard-role", "coordinator", "-fleet", topo)
		},
	}
	for _, r := range new(options).table().Rows {
		if cases[r.Name] == nil {
			t.Errorf("-%s has no case: a flag stays only with a test that shows it changing an outcome", r.Name)
		}
	}
	for name, c := range cases {
		t.Run(name, c)
	}
}

// TestCorpusInput: a corpus file builds with blank lines in it (the
// ones an editor leaves at the end among them), and -corpus - reads
// the corpus from stdin.
func TestCorpusInput(t *testing.T) {
	corpus, raw := corpusFile(t, 20, 9)
	if err := os.WriteFile(corpus, append(raw, "\n  \n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	file := start(t, "-corpus", corpus)
	o, _ := parseFlags([]string{"-corpus", "-"})
	stdin, err := o.handler(quiet, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := field(t, stdin, "/stats", "num_docs"); got != 20.0 {
		t.Errorf("-corpus - of 20 posts serves %v documents", got)
	}
	if a, b := related(file), related(stdin); a != b {
		t.Errorf("the file and stdin answer otherwise:\n%s\n%s", a, b)
	}
}
