package serve

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/match"
	"repro/internal/obs"
)

// The envelope measured without httptest: one request object and one
// ResponseWriter reused across calls, so what a run allocates and takes
// is the handler's own — the mux, observe, the decode, the hygiene
// stages, the encode and the access log — under the configuration
// cmd/serve (and bench/) run with.

// benchConfig is cmd/serve's default observability with a cache: a JSON
// access log, one rate-sampled trace a second, slow capture at 100 ms —
// so every request is speculatively traced.
func benchConfig(cacheEntries int) Config {
	return Config{
		Logger:       slog.New(slog.NewJSONHandler(io.Discard, nil)),
		TraceRate:    1,
		SlowQuery:    100 * time.Millisecond,
		CacheEntries: cacheEntries,
	}
}

// nullWriter is a ResponseWriter that keeps nothing but the status, the
// byte count and its (reused) header map.
type nullWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(c int)   { w.status = c }
func (w *nullWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// rewindBody is a request body that can be read again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// handlerCall is one reusable POST against a handler.
type handlerCall struct {
	h    http.Handler
	w    *nullWriter
	req  *http.Request
	body *rewindBody
	raw  []byte
}

func newHandlerCall(h http.Handler, path, body string) *handlerCall {
	c := &handlerCall{h: h, w: &nullWriter{h: make(http.Header)}, body: &rewindBody{}, raw: []byte(body)}
	c.req = (&http.Request{
		Method: http.MethodPost, URL: &url.URL{Path: path}, Host: "bench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}},
		Body:   c.body, ContentLength: int64(len(body)),
	}).WithContext(context.Background())
	return c
}

// do serves the call once and returns the status.
func (c *handlerCall) do() int {
	clear(c.w.h)
	c.w.status, c.w.n = 0, 0
	c.body.Reset(c.raw)
	c.h.ServeHTTP(c.w, c.req)
	return c.w.status
}

func benchHandler(b *testing.B, cacheEntries int) {
	obs.Enable()
	b.Cleanup(obs.Disable)
	c := newHandlerCall(New(openRow(b, rowNamed("unsharded")).eng, benchConfig(cacheEntries)).Handler(), "/related", `{"doc_id": 3, "k": 10}`)
	if status := c.do(); status != http.StatusOK { // with a cache, this is the miss that fills it
		b.Fatalf("status %d", status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.do() != http.StatusOK {
			b.Fatal("request failed")
		}
	}
}

// BenchmarkHandlerHit is a /related answered from the result cache: all
// envelope, no engine.
func BenchmarkHandlerHit(b *testing.B) { benchHandler(b, 4096) }

// BenchmarkHandlerMiss is the same request with the cache off: the
// envelope around one Algorithm 1 + 2 run on the model's 100 posts.
func BenchmarkHandlerMiss(b *testing.B) { benchHandler(b, 0) }

// stubEngine answers at once and allocates nothing, so a handler call
// over it allocates only what the envelope does.
type stubEngine struct {
	ans  match.Answer
	next int
}

func (e *stubEngine) Query(context.Context, int, int, bool) (match.Answer, error) {
	return e.ans, nil
}
func (e *stubEngine) AddContext(context.Context, string) (int, error) { e.next++; return e.next, nil }
func (e *stubEngine) Epoch() uint64                                   { return 1 }
func (e *stubEngine) Describe(cache.LayerStats) any                   { return nil }

// TestHandlerAllocations pins what the envelope allocates per request on
// each handler path under cmd/serve's defaults, beside
// core.TestRelatedAllocations for the engine: a cache hit, a miss
// (decode, engine call, encode, no cache) and an /add. Each bound is the
// measured count + 2.
func TestHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	obs.Enable()
	t.Cleanup(obs.Disable)
	eng := &stubEngine{}
	for i := 0; i < 10; i++ {
		eng.ans.Results = append(eng.ans.Results, match.Result{DocID: i + 1, Score: 1 / float64(i+3)})
	}
	for _, tc := range []struct {
		name, path, body string
		cacheEntries     int
		max              float64
	}{
		{"hit", "/related", `{"doc_id": 3, "k": 10}`, 4096, 5},                        // 18 before the pooled request scope
		{"miss", "/related", `{"doc_id": 3, "k": 10}`, 0, 7},                          // 20
		{"add", "/add", `{"text": "my laptop will not boot after the update"}`, 0, 7}, // 18, then 13 while it decoded by reflection
	} {
		c := newHandlerCall(New(eng, benchConfig(tc.cacheEntries)).Handler(), tc.path, tc.body)
		if status := c.do(); status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, status)
		}
		got := testing.AllocsPerRun(200, func() { c.do() })
		t.Logf("%s: %.0f allocs per request (bound %.0f)", tc.name, got, tc.max)
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per request, want ≤ %.0f", tc.name, got, tc.max)
		}
	}
}
