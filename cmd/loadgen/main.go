// Command loadgen drives a running serve instance (single-process,
// sharded, or fleet coordinator) with an open-loop request schedule and
// reports latency quantiles.
//
// Open-loop means arrivals follow a fixed schedule derived from -rate
// alone: a request that should fire at t=i/rate fires then (or as soon
// as the generator catches up), whether or not earlier requests have
// completed, and its latency is measured from the scheduled start — not
// from when a worker got around to sending it. A closed-loop driver
// (send, wait, send) silently stops offering load while the server
// stalls, so a 2-second pause costs it two seconds of one request's
// latency instead of rate×2 requests' worth — the coordinated-omission
// trap. Under open-loop scheduling a stall shows up in P999 as the
// queueing delay every scheduled-but-delayed request actually suffered.
//
// The workload mixes POST /related (doc ids drawn Zipfian over the
// served collection, mimicking hot-post skew) with POST /add at
// -add-frac (0 for fleet coordinators, whose /add answers 501).
//
// Usage:
//
//	loadgen -target http://localhost:8080 -rate 200 -duration 10s
//	loadgen -target http://localhost:8080 -rate 50 -add-frac 0.05 -out load.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

type result struct {
	latency time.Duration
	err     bool
	shed    bool
}

// cacheStats mirrors the cache block a server run with -cache-entries exposes
// on /stats (absent — nil — when caching is off).
type cacheStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// report is the JSON written to -out (and stdout): everything the
// bench harness needs to compare topologies at one glance.
type report struct {
	Name        string  `json:"name,omitempty"`
	Target      string  `json:"target"`
	RatePerSec  float64 `json:"rate_per_sec"`
	DurationSec float64 `json:"duration_sec"`
	AddFrac     float64 `json:"add_frac"`
	NumDocs     int     `json:"num_docs"`
	Sent        int     `json:"sent"`
	OK          int     `json:"ok"`
	Errors      int     `json:"errors"`
	// Shed counts typed 503 overload responses (a subset of Errors):
	// the server refusing work by contract rather than failing at it.
	Shed          int     `json:"shed"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50NS         int64   `json:"p50_ns"`
	P90NS         int64   `json:"p90_ns"`
	P99NS         int64   `json:"p99_ns"`
	P999NS        int64   `json:"p999_ns"`
	MaxNS         int64   `json:"max_ns"`
	// Cache is the server's result-cache view scraped from /stats after
	// the run; absent when the target serves with caching off.
	Cache *cacheStats `json:"cache,omitempty"`
}

func main() {
	target := flag.String("target", "http://localhost:8080", "base URL of the serve instance")
	rate := flag.Float64("rate", 100, "offered load, requests per second (open-loop schedule)")
	duration := flag.Duration("duration", 10*time.Second, "run length")
	k := flag.Int("k", 5, "result count per /related query")
	seed := flag.Int64("seed", 1, "random seed for the Zipfian document picks")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	addFrac := flag.Float64("add-frac", 0, "fraction of requests that are POST /add (0..1); keep 0 against fleet coordinators")
	out := flag.String("out", "", "also write the JSON report to this file")
	name := flag.String("name", "", "label recorded in the report (e.g. single, fleet)")
	flag.Parse()

	if *rate <= 0 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -rate and -duration must be positive")
		os.Exit(2)
	}

	client := &http.Client{Timeout: *timeout}
	numDocs, err := fetchNumDocs(client, *target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %s/stats: %v\n", *target, err)
		os.Exit(1)
	}
	if numDocs == 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %s serves zero documents\n", *target)
		os.Exit(1)
	}

	// rand.Zipf draws ranks with P(rank) ∝ 1/(rank+q)^s; s=1.1, q=1 is
	// the usual mild web-traffic skew. Ranks are used directly as doc
	// ids: generated corpora carry no inherent hotness, so any fixed
	// rank→id map produces the same load shape.
	rng := rand.New(rand.NewSource(*seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(numDocs-1))

	total := int(float64(*duration) / float64(time.Second) * *rate)
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / *rate)

	// Pre-draw the whole schedule so the firing loop does no RNG work
	// (and so the doc sequence is independent of timing jitter).
	docs := make([]int, total)
	adds := make([]bool, total)
	for i := range docs {
		docs[i] = int(zipf.Uint64())
		adds[i] = rng.Float64() < *addFrac
	}

	results := make([]result, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		// Open loop: sleep until the i-th scheduled instant, then fire on
		// a fresh goroutine. Latency counts from the *scheduled* time, so
		// generator lag (oversubscribed CPU) is charged to the request,
		// exactly as a queued client would experience it.
		sched := time.Duration(i) * interval
		if d := sched - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status := fire(client, *target, docs[i], *k, adds[i])
			results[i] = result{
				latency: time.Since(start) - time.Duration(i)*interval,
				err:     status != http.StatusOK,
				shed:    status == http.StatusServiceUnavailable,
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	lats := make([]int64, 0, total)
	okCount, shedCount := 0, 0
	for _, r := range results {
		lats = append(lats, int64(r.latency))
		if !r.err {
			okCount++
		}
		if r.shed {
			shedCount++
		}
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })

	rep := report{
		Name:          *name,
		Target:        *target,
		RatePerSec:    *rate,
		DurationSec:   elapsed.Seconds(),
		AddFrac:       *addFrac,
		NumDocs:       numDocs,
		Sent:          total,
		OK:            okCount,
		Errors:        total - okCount,
		Shed:          shedCount,
		ThroughputRPS: float64(total) / elapsed.Seconds(),
		Cache:         fetchCacheStats(client, *target),
		P50NS:         quantile(lats, 0.50),
		P90NS:         quantile(lats, 0.90),
		P99NS:         quantile(lats, 0.99),
		P999NS:        quantile(lats, 0.999),
		MaxNS:         lats[len(lats)-1],
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
	if *out != "" {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: write %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if okCount == 0 {
		os.Exit(1)
	}
}

// quantile reads the exact q-quantile from sorted latencies (nearest
// rank; no interpolation — these are measured samples, not buckets).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// fetchNumDocs asks /stats for the collection size; both the
// single-process StatsResponse and the fleet's FleetStatsResponse carry
// num_docs.
func fetchNumDocs(client *http.Client, target string) (int, error) {
	resp, err := client.Get(target + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var st struct {
		NumDocs int `json:"num_docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.NumDocs, nil
}

// fetchCacheStats scrapes the post-run cache block from /stats; nil
// when the target serves uncached (the block is omitempty) or the
// scrape fails (the report simply goes without).
func fetchCacheStats(client *http.Client, target string) *cacheStats {
	resp, err := client.Get(target + "/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var st struct {
		Cache *cacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil
	}
	return st.Cache
}

// fire issues one request and returns the HTTP status (0 on transport
// error). Request bodies are tiny and fixed-shape; building them inline
// keeps the goroutine cheap.
func fire(client *http.Client, target string, doc, k int, add bool) int {
	var url string
	var body []byte
	if add {
		url = target + "/add"
		body = []byte(`{"text": "loadgen synthetic post: my router keeps dropping the wifi connection after the latest firmware update, any advice appreciated"}`)
	} else {
		url = target + "/related"
		body = []byte(fmt.Sprintf(`{"doc_id": %d, "k": %d}`, doc, k))
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
