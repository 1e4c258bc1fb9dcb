package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// client is one load-generating worker's HTTP side: a single keep-alive
// connection and a reusable reply buffer. The bench never opens a
// goroutine or a socket per request.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one operation and reads the whole reply. The returned body
// is valid until the client's next call.
func (c *client) do(base string, o op) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+o.kind.path(), bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// sample is what one timed operation left behind. Times are offsets
// from the phase start; in a closed phase due equals sent.
type sample struct {
	kind            opKind
	ok              bool // answered 200
	due, sent, done time.Duration
	addID           int // document id an /add acknowledged, -1 otherwise
}

// runPhase executes ops over the clients, one worker goroutine per
// client. With rate 0 it is a closed loop: a worker sends its next
// operation when the previous reply is in. With a rate it is an open
// loop: operation i is due at i/rate seconds whatever the replies do,
// and a worker that finds its operation overdue sends it at once (the
// wait is charged to that operation's latency). Once the phase has run
// for limit (0: no limit) no further operation is started. It returns
// one sample per operation started, in schedule order, and the phase's
// wall time.
func runPhase(base string, clients []*client, ops []op, rate int, limit time.Duration) ([]sample, time.Duration) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for limit == 0 || time.Since(start) < limit {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				s := &samples[i]
				s.kind, s.addID = ops[i].kind, -1
				if rate > 0 {
					s.due = time.Duration(i) * time.Second / time.Duration(rate)
					// A signal cuts a sleep short, so sleep again until due.
					for wait := s.due - time.Since(start); wait > 0; wait = s.due - time.Since(start) {
						pause(wait)
					}
				}
				s.sent = time.Since(start)
				if rate == 0 {
					s.due = s.sent
				}
				status, body, err := c.do(base, ops[i])
				s.done = time.Since(start)
				s.ok = err == nil && status == http.StatusOK
				if s.ok && s.kind == opAdd {
					var ack serve.AddResponse
					if json.Unmarshal(body, &ack) != nil {
						s.ok = false
					} else {
						s.addID = ack.DocID
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return samples[:min(int(next.Load()), len(ops))], time.Since(start)
}

// phaseCount is a phase's operations sent, answered 200, and failed.
type phaseCount struct{ sent, ok, failed int }

func countPhase(samples []sample) phaseCount {
	c := phaseCount{sent: len(samples)}
	for _, s := range samples {
		if s.ok {
			c.ok++
		}
	}
	c.failed = c.sent - c.ok
	return c
}

// latenciesMS returns the due-time latencies, in milliseconds, of the
// successful samples of one kind.
func latenciesMS(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && s.kind == kind {
			out = append(out, ms(dueLatency(s.due, s.done)))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// bestThroughput takes the same closed slice as every round ran it,
// cuts it into parts by schedule position and returns the operations
// per second the slice is answered at when every part takes the time of
// its best round. A part's rate in a round is its count of 200s over
// the time from its first send to the next part's first send (the
// slice's last reply, for the last part): a failed operation takes time
// and adds nothing. A round that stopped short of a part's end does not
// count for that part, and with a part no round finished there is
// nothing to report, which reads 0.
func bestThroughput(rounds [][]sample, parts int) float64 {
	n := 0
	for _, r := range rounds {
		n = max(n, len(r))
	}
	bounds := windowBounds(n, parts)
	seconds := 0.0
	for p := 0; p < parts; p++ {
		from, to := bounds[p], bounds[p+1]
		if from == to {
			continue
		}
		best := 0.0
		for _, r := range rounds {
			if len(r) < to {
				continue
			}
			end, answered := r[from].done, 0
			for _, s := range r[from:] {
				end = max(end, s.done)
			}
			if to < len(r) {
				end = r[to].sent
			}
			for _, s := range r[from:to] {
				if s.ok {
					answered++
				}
			}
			best = max(best, float64(answered)/(end-r[from].sent).Seconds())
		}
		if best == 0 {
			return 0
		}
		seconds += float64(to-from) / best
	}
	if seconds == 0 {
		return 0
	}
	return float64(n) / seconds
}

// bestPerPosition takes the same slice as every round ran it and
// returns, for each position that holds an operation of kind, the lowest
// due-time latency in milliseconds of the rounds that answered it. A
// position no round answered is left out.
func bestPerPosition(rounds [][]sample, kind opKind) []float64 {
	var out []float64
	for i := 0; ; i++ {
		best, reached := time.Duration(-1), false
		for _, r := range rounds {
			if i >= len(r) {
				continue
			}
			reached = true
			if s := r[i]; s.ok && s.kind == kind {
				if lat := dueLatency(s.due, s.done); best < 0 || lat < best {
					best = lat
				}
			}
		}
		if !reached {
			return out
		}
		if best >= 0 {
			out = append(out, ms(best))
		}
	}
}

// windowQuantiles cuts the open slices, laid end to end, into w windows
// by schedule index and returns the q-quantile of each window's
// latencies of one kind.
func windowQuantiles(samples []sample, kind opKind, w int, q float64) []float64 {
	bounds := windowBounds(len(samples), w)
	out := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		if lat := latenciesMS(samples[bounds[i]:bounds[i+1]], kind); len(lat) > 0 {
			out = append(out, quantile(sortedCopy(lat), q))
		}
	}
	return out
}

// latenessMS returns how long after its due time each operation left
// the generator.
func latenessMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.sent - s.due)
	}
	return out
}
