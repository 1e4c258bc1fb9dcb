// Package par provides the bounded-parallelism helper shared by the
// offline build (segmentation, vectorization, preprocessing) and the
// online serving layer (per-intention-cluster queries, batch serving).
// It exists so the fan-out semantics live in exactly one place: callers
// that hard-code their own worker counts drift out of sync with the
// machine (an earlier core helper pinned 8 workers while documenting
// GOMAXPROCS).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs fn(i) for every i in [0, n) across at most workers goroutines
// and returns when all calls have completed. workers <= 0 sizes the pool
// from runtime.GOMAXPROCS(0); with one worker (or fewer than two items)
// the calls run inline on the caller's goroutine. Iterations are handed
// out dynamically, so uneven per-item cost does not idle workers. fn must
// be safe for concurrent invocation when workers > 1.
//
// The caller is one of the workers: Do starts workers-1 goroutines and
// takes iterations itself until none are left. A serving request that
// fans its probes out therefore keeps running on its own goroutine
// instead of parking behind a full set of helpers and waiting to be
// woken by the last of them — one goroutine start and one park/wake pair
// fewer per call, which on a busy server is scheduler work the other
// requests do not have to wait behind.
func Do(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
}

// Chunks splits [0, n) into at most `workers` contiguous ranges and runs
// fn(lo, hi) for each on its own goroutine. It is the blocked counterpart
// of Do for loop bodies that amortize per-worker scratch (distance
// buffers, partial sums) across many cheap iterations: each range sees one
// fn call, so the callee can allocate once per range instead of once per
// index. workers <= 0 sizes from runtime.GOMAXPROCS(0); with one worker
// (or n < 2) fn runs inline on the caller's goroutine.
func Chunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
