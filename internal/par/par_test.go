package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs fn under runtime.GOMAXPROCS(procs), the pool size Do
// and Chunks read, and restores the old value.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 16} {
		const n = 250
		counts := make([]int32, n)
		withProcs(procs, func() {
			Do(n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times, want 1", procs, i, c)
			}
		}
	}
}

func TestDoSmallN(t *testing.T) {
	ran := false
	Do(0, func(int) { ran = true })
	if ran {
		t.Error("Do(0, ...) invoked fn")
	}
	var got int32
	Do(1, func(i int) { atomic.AddInt32(&got, int32(i)+1) })
	if got != 1 {
		t.Errorf("Do(1, ...) ran fn %v times/indices, want exactly i=0 once", got)
	}
}

func TestChunksCoverEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 16} {
		const n = 250
		counts := make([]int32, n)
		chunkCalls := int32(0)
		withProcs(procs, func() {
			Chunks(n, func(lo, hi int) {
				atomic.AddInt32(&chunkCalls, 1)
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("GOMAXPROCS=%d: bad range [%d, %d)", procs, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d covered %d times, want 1", procs, i, c)
			}
		}
		if int(chunkCalls) > procs {
			t.Errorf("GOMAXPROCS=%d: %d chunks, want <= GOMAXPROCS", procs, chunkCalls)
		}
	}
}

func TestChunksSmallN(t *testing.T) {
	ran := false
	Chunks(0, func(int, int) { ran = true })
	if ran {
		t.Error("Chunks(0, ...) invoked fn")
	}
	var lo, hi int
	Chunks(1, func(l, h int) { lo, hi = l, h })
	if lo != 0 || hi != 1 {
		t.Errorf("Chunks(1, ...) gave [%d, %d), want [0, 1)", lo, hi)
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	const procs = 3
	var active, peak int32
	withProcs(procs, func() {
		Do(64, func(int) {
			a := atomic.AddInt32(&active, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if a <= p || atomic.CompareAndSwapInt32(&peak, p, a) {
					break
				}
			}
			atomic.AddInt32(&active, -1)
		})
	})
	if peak > procs {
		t.Errorf("observed %d concurrent calls, want <= %d", peak, procs)
	}
}
