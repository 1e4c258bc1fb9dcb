// Package par provides the bounded-parallelism helper of the offline
// build (preprocessing, segmentation, vectorization, clustering,
// per-cluster indexing) and of cmd/intentmatch's batch of queries. A
// serving request runs on its caller's goroutine and never comes here.
// The pool is sized from runtime.GOMAXPROCS(0), in one place: callers
// that hard-code their own worker counts drift out of sync with the
// machine (an earlier core helper pinned 8 workers while documenting
// GOMAXPROCS).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs fn(i) for every i in [0, n) across at most GOMAXPROCS
// goroutines and returns when all calls have completed. With one worker
// (or fewer than two items) the calls run inline on the caller's
// goroutine. Iterations are handed out dynamically, so uneven per-item
// cost does not idle workers. fn must be safe for concurrent invocation.
// The caller is one of the workers: Do starts the others and takes
// iterations itself until none are left.
func Do(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
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

// Chunks splits [0, n) into at most GOMAXPROCS contiguous ranges and
// runs fn(lo, hi) for each on its own goroutine. It is the blocked
// counterpart of Do for loop bodies that amortize per-worker scratch
// (distance buffers, partial sums) across many cheap iterations: each
// range sees one fn call, so the callee can allocate once per range
// instead of once per index. With one worker (or n < 2) fn runs inline
// on the caller's goroutine.
func Chunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
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
