package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCachePutGet(t *testing.T) {
	c := New(64)
	k := Key{Doc: 7, K: 5, Epoch: 1}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, Entry{Body: []byte("body"), Status: 200, Results: 5})
	e, ok := c.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if string(e.Body) != "body" || e.Status != 200 || e.Results != 5 {
		t.Fatalf("wrong entry: %+v", e)
	}
	// Same doc, different k / explain / epoch: all distinct keys.
	for _, other := range []Key{
		{Doc: 7, K: 6, Epoch: 1},
		{Doc: 7, K: 5, Explain: true, Epoch: 1},
		{Doc: 7, K: 5, Epoch: 2},
	} {
		if _, ok := c.Get(other); ok {
			t.Fatalf("key %+v aliased %+v", other, k)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("stats hits=%d misses=%d, want 1/4", st.Hits, st.Misses)
	}
	if want := 1.0 / 5.0; st.HitRate != want {
		t.Fatalf("hit rate %v, want %v", st.HitRate, want)
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := New(16)
	k := Key{Doc: 1, K: 5, Epoch: 1}
	c.Put(k, Entry{Body: []byte("old")})
	c.Put(k, Entry{Body: []byte("new")})
	if c.Len() != 1 {
		t.Fatalf("len %d after double Put, want 1", c.Len())
	}
	if e, _ := c.Get(k); string(e.Body) != "new" {
		t.Fatalf("got %q, want new", e.Body)
	}
}

func TestCacheEvictsLRUWithinStripe(t *testing.T) {
	c := New(0) // clamps to 1 entry per stripe
	if c.capacity() != numStripes {
		t.Fatalf("capacity %d, want %d", c.capacity(), numStripes)
	}
	// Two keys that land in the same stripe necessarily evict each
	// other at cap 1. Find a same-stripe pair by scanning.
	base := Key{Doc: 0, K: 5, Epoch: 1}
	var other Key
	found := false
	for d := 1; d < 4096; d++ {
		k := Key{Doc: d, K: 5, Epoch: 1}
		if c.stripeFor(k) == c.stripeFor(base) {
			other, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no same-stripe pair in 4096 docs")
	}
	c.Put(base, Entry{Body: []byte("a")})
	c.Put(other, Entry{Body: []byte("b")})
	if _, ok := c.Get(base); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(other); !ok {
		t.Fatal("MRU entry evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
}

func TestCacheLRUOrderRefreshedByGet(t *testing.T) {
	c := New(0)
	base := Key{Doc: 0, K: 5, Epoch: 1}
	var same []Key
	for d := 1; d < 8192 && len(same) < 2; d++ {
		k := Key{Doc: d, K: 5, Epoch: 1}
		if c.stripeFor(k) == c.stripeFor(base) {
			same = append(same, k)
		}
	}
	if len(same) < 2 {
		t.Fatal("not enough same-stripe keys")
	}
	// Cap 2 in this stripe: rebuild with capacity 2*numStripes.
	c = New(2 * numStripes)
	c.Put(base, Entry{Body: []byte("a")})
	c.Put(same[0], Entry{Body: []byte("b")})
	c.Get(base) // refresh a → b is now LRU
	c.Put(same[1], Entry{Body: []byte("c")})
	if _, ok := c.Get(base); !ok {
		t.Fatal("refreshed entry was evicted")
	}
	if _, ok := c.Get(same[0]); ok {
		t.Fatal("stale entry survived")
	}
}

func TestCacheEpochInvalidationCount(t *testing.T) {
	c := New(64)
	c.Get(Key{Doc: 1, K: 5, Epoch: 0})
	c.Get(Key{Doc: 1, K: 5, Epoch: 1}) // advance: 1 invalidation
	c.Get(Key{Doc: 2, K: 5, Epoch: 1}) // same epoch: no new invalidation
	c.Get(Key{Doc: 1, K: 5, Epoch: 5}) // advance again
	st := c.Stats()
	if st.Invalidations != 2 {
		t.Fatalf("invalidations %d, want 2", st.Invalidations)
	}
	if st.Epoch != 5 {
		t.Fatalf("epoch %d, want 5", st.Epoch)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := New(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Doc: (g*31 + i) % 100, K: 5, Epoch: uint64(i % 3)}
				if i%2 == 0 {
					c.Put(k, Entry{Body: []byte(fmt.Sprintf("d%d", k.Doc))})
				} else if e, ok := c.Get(k); ok {
					if want := fmt.Sprintf("d%d", k.Doc); string(e.Body) != want {
						panic("cross-key body corruption")
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFlightCollapses(t *testing.T) {
	f := NewFlight()
	key := Key{Doc: 3, K: 5, Epoch: 1}
	const m = 8
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var computed atomic.Int64

	var wg sync.WaitGroup
	results := make([]Entry, m)
	leaders := make([]bool, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err, leader := f.Do(context.Background(), key, func() (Entry, error) {
				computed.Add(1)
				once.Do(func() { close(started) })
				<-release
				return Entry{Body: []byte("shared")}, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i], leaders[i] = e, leader
		}(i)
	}
	<-started
	// Let every follower reach the wait before releasing the leader.
	for {
		f.mu.Lock()
		waiting := f.followers.Load()
		f.mu.Unlock()
		if waiting == m-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computed.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	nLeaders := 0
	for i := range results {
		if string(results[i].Body) != "shared" {
			t.Fatalf("goroutine %d got %q", i, results[i].Body)
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Fatalf("%d leaders, want 1", nLeaders)
	}
	st := f.Stats()
	if st.Leaders != 1 || st.Followers != m-1 {
		t.Fatalf("stats %+v, want 1 leader / %d followers", st, m-1)
	}
}

func TestFlightDistinctKeysDoNotCollapse(t *testing.T) {
	f := NewFlight()
	var computed atomic.Int64
	var wg sync.WaitGroup
	for e := uint64(1); e <= 3; e++ {
		wg.Add(1)
		go func(e uint64) {
			defer wg.Done()
			f.Do(context.Background(), Key{Doc: 1, K: 5, Epoch: e}, func() (Entry, error) {
				computed.Add(1)
				return Entry{}, nil
			})
		}(e)
	}
	wg.Wait()
	if n := computed.Load(); n != 3 {
		t.Fatalf("fn ran %d times across 3 epochs, want 3", n)
	}
}

func TestFlightFollowerCancel(t *testing.T) {
	f := NewFlight()
	key := Key{Doc: 9, K: 5, Epoch: 1}
	release := make(chan struct{})
	started := make(chan struct{})
	go f.Do(context.Background(), key, func() (Entry, error) {
		close(started)
		<-release
		return Entry{Body: []byte("late")}, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err, _ := f.Do(ctx, key, func() (Entry, error) { return Entry{}, nil })
		done <- err
	}()
	for f.followers.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err %v, want context.Canceled", err)
	}
	close(release) // leader finishes cleanly after the follower left
}

// virtualNow is a hand-advanced clock for admission wait timing.
type virtualNow struct {
	mu sync.Mutex
	t  time.Time
}

func (v *virtualNow) now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.t
}

func (v *virtualNow) advance(d time.Duration) {
	v.mu.Lock()
	v.t = v.t.Add(d)
	v.mu.Unlock()
}

func TestAdmissionShedsWhenFull(t *testing.T) {
	a := NewAdmission(1, 1)
	ctx := context.Background()
	if err := a.Acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.Acquire(ctx) }()
	for {
		if a.Stats().QueueDepth == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Limit busy, queue full: third request sheds synchronously.
	if err := a.Acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err %v, want ErrOverloaded", err)
	}
	a.Release() // slot transfers to the queued waiter
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	st := a.Stats()
	if st.Shed != 1 || st.QueuedTotal != 1 {
		t.Fatalf("stats %+v, want shed=1 queued_total=1", st)
	}
	if st.Inflight != 1 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v, want inflight=1 depth=0 after transfer", st)
	}
	a.Release()
	if st := a.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight %d after final release, want 0", st.Inflight)
	}
}

func TestAdmissionFIFO(t *testing.T) {
	a := NewAdmission(1, 3)
	ctx := context.Background()
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		// Enqueue strictly one at a time so queue order is known.
		ready := make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			close(ready)
			if err := a.Acquire(ctx); err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.Release()
		}(i)
		<-ready
		for a.Stats().QueueDepth != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	a.Release()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO 0,1,2", order)
		}
	}
}

func TestAdmissionCancelLeavesQueue(t *testing.T) {
	vc := &virtualNow{t: time.Unix(0, 0)}
	a := NewAdmission(1, 2)
	a.now = vc.now
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Acquire(ctx) }()
	for a.Stats().QueueDepth != 1 {
		time.Sleep(time.Millisecond)
	}
	vc.advance(25 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if st := a.Stats(); st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after cancel, want 0", st.QueueDepth)
	}
	// The held slot is unaffected by the canceled waiter.
	a.Release()
	if st := a.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight %d, want 0", st.Inflight)
	}
}

func TestAdmissionWaitHistogramVirtualClock(t *testing.T) {
	// The queue-wait span must record the exact virtually-elapsed wait:
	// obs histograms only record while enabled, so with recording on
	// for just this test the admit.wait sum advances by precisely the
	// advance() amount.
	obs.Enable()
	defer obs.Disable()
	before := spanWait.Snapshot()

	vc := &virtualNow{t: time.Unix(1000, 0)}
	a := NewAdmission(1, 1)
	a.now = vc.now
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Acquire(context.Background()) }()
	for a.Stats().QueueDepth != 1 {
		time.Sleep(time.Millisecond)
	}
	const wait = 40 * time.Millisecond
	vc.advance(wait)
	a.Release() // transfers the slot; the waiter records its queue time
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	a.Release()

	after := spanWait.Snapshot()
	if after.Count != before.Count+1 {
		t.Fatalf("wait histogram count %d, want %d", after.Count, before.Count+1)
	}
	if got := after.Sum - before.Sum; got != int64(wait) {
		t.Fatalf("wait histogram sum advanced %d ns, want exactly %d", got, int64(wait))
	}
}

func TestAdmissionGrantCancelRace(t *testing.T) {
	// A waiter that is granted a slot while its context cancels must
	// pass the slot on, never strand it. Whatever the interleaving,
	// once holder and waiter are done the controller must read
	// inflight=0 / depth=0. Many rounds under -race shake out ordering
	// bugs in the granted handoff.
	for round := 0; round < 200; round++ {
		a := NewAdmission(1, 1)
		if err := a.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			err := a.Acquire(ctx)
			if err == nil {
				a.Release()
			}
			done <- err
		}()
		for a.Stats().QueueDepth != 1 {
			time.Sleep(time.Microsecond)
		}
		go cancel()
		go a.Release()
		<-done
		cancel()
		deadline := time.Now().Add(2 * time.Second)
		for {
			st := a.Stats()
			if st.Inflight == 0 && st.QueueDepth == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: slot stranded: %+v", round, st)
			}
			time.Sleep(time.Microsecond)
		}
	}
}
