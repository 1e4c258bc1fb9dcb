// Package cache is the serving-hygiene layer for heavy skewed traffic:
// a sharded (mutex-striped) LRU result cache for Related responses,
// singleflight collapsing of concurrent identical queries, and bounded
// admission with load shedding. internal/serve runs the three as stages
// of its /related handler; all of them are off by default, and with
// every knob at zero the responses are byte-identical to a build without
// this package.
//
// Correctness rests on epoch keying, not on scanning invalidation. Eq 9
// scores depend on collection-global statistics (unit counts, document
// frequencies, average unique terms), so ANY mutation — one /add —
// shifts every document's scores. A result cached before an add is
// therefore unservable after it, no matter which document it describes.
// Instead of walking the cache on every mutation, the cache key carries
// the collection's epoch (a counter every commit bumps, see
// core.Pipeline.Epoch); a mutation changes the epoch, every future
// lookup probes a key no writer ever wrote, and the stale generation
// ages out through normal LRU eviction. Invalidation is O(1) and
// atomic with the commit that caused it. DESIGN.md §10 states the full
// argument.
package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Cache-layer instruments. Process-global like every obs metric: a
// process embedding several caches (tests, a coordinator next to a
// pipeline) reports their sum, and per-server views come from
// Stats().
var (
	ctrHits          = obs.NewCounter("cache.hits")
	ctrMisses        = obs.NewCounter("cache.misses")
	ctrEvictions     = obs.NewCounter("cache.evictions")
	ctrInvalidations = obs.NewCounter("cache.invalidations")
)

// Key identifies one cacheable Related response. Epoch is the
// collection epoch the response was computed against; because every
// mutation bumps the epoch, two keys with different epochs never alias
// and a stale entry can never answer a fresh lookup.
type Key struct {
	Doc     int
	K       int
	Explain bool
	Epoch   uint64
}

// Entry is one cached response: the exact serialized body the handler
// would have written (so a hit is byte-identical to a miss), the HTTP
// status, and the result count for the access log. Partial marks a
// degraded fleet merge; partial entries flow through singleflight to
// followers but are never stored (a partial result must not be
// replayed as the complete answer).
type Entry struct {
	Body    []byte
	Status  int
	Results int
	Partial bool
}

// numStripes is the mutex striping width. 16 keeps lock contention
// negligible at serving concurrency while staying small enough that
// tiny caches still get at least one entry per stripe.
const numStripes = 16

// node is one intrusive LRU list element.
type node struct {
	key        Key
	entry      Entry
	prev, next *node
}

// stripe is one independently locked LRU segment.
type stripe struct {
	mu    sync.Mutex
	cap   int
	items map[Key]*node
	head  *node // most recently used
	tail  *node // least recently used
}

// ResultCache is a sharded LRU over Related responses. Keys are
// striped by document id, so the hot-post skew the cache exists for
// (many lookups of few documents) spreads across stripes by document
// rather than serializing on one lock.
type ResultCache struct {
	stripes [numStripes]stripe

	// lastEpoch tracks the highest epoch any lookup or store has
	// carried; advancing it counts one logical invalidation (the O(1)
	// event that retired every older-epoch entry at once).
	lastEpoch atomic.Uint64

	// Per-cache view for /stats (the obs counters aggregate every cache
	// in the process).
	hits, misses, evictions, invalidations atomic.Int64
}

// New builds a cache bounded at capacity entries (minimum one per
// stripe — a positive capacity always caches something).
func New(capacity int) *ResultCache {
	per := capacity / numStripes
	if per < 1 {
		per = 1
	}
	c := &ResultCache{}
	for i := range c.stripes {
		c.stripes[i].cap = per
		c.stripes[i].items = make(map[Key]*node, per)
	}
	return c
}

// capacity returns the total entry budget.
func (c *ResultCache) capacity() int { return c.stripes[0].cap * numStripes }

// stripeFor picks a stripe by document id. Document ids are dense and
// Zipf-ranked by the workload, so a multiplicative hash spreads the
// hot head across stripes.
func (c *ResultCache) stripeFor(k Key) *stripe {
	h := uint64(k.Doc)*0x9E3779B97F4A7C15 + uint64(k.K)
	return &c.stripes[(h>>59)&(numStripes-1)]
}

// noteEpoch advances the invalidation clock to epoch, counting one
// invalidation per distinct advance observed.
func (c *ResultCache) noteEpoch(epoch uint64) {
	for {
		last := c.lastEpoch.Load()
		if epoch <= last {
			return
		}
		if c.lastEpoch.CompareAndSwap(last, epoch) {
			ctrInvalidations.Inc()
			c.invalidations.Add(1)
			return
		}
	}
}

// Get returns the entry cached under key, marking it most recently
// used.
func (c *ResultCache) Get(key Key) (Entry, bool) {
	c.noteEpoch(key.Epoch)
	s := c.stripeFor(key)
	s.mu.Lock()
	n, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		ctrMisses.Inc()
		c.misses.Add(1)
		return Entry{}, false
	}
	s.moveToFront(n)
	e := n.entry
	s.mu.Unlock()
	ctrHits.Inc()
	c.hits.Add(1)
	return e, true
}

// Put stores entry under key, evicting the stripe's least recently
// used entry when full.
func (c *ResultCache) Put(key Key, entry Entry) {
	c.noteEpoch(key.Epoch)
	s := c.stripeFor(key)
	s.mu.Lock()
	if n, ok := s.items[key]; ok {
		n.entry = entry
		s.moveToFront(n)
		s.mu.Unlock()
		return
	}
	if len(s.items) >= s.cap {
		lru := s.tail
		s.unlink(lru)
		delete(s.items, lru.key)
		ctrEvictions.Inc()
		c.evictions.Add(1)
	}
	n := &node{key: key, entry: entry}
	s.items[key] = n
	s.pushFront(n)
	s.mu.Unlock()
}

// Len returns the live entry count across all stripes.
func (c *ResultCache) Len() int {
	total := 0
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
		total += len(c.stripes[i].items)
		c.stripes[i].mu.Unlock()
	}
	return total
}

// Stats is the per-cache view /stats serves.
type Stats struct {
	Capacity      int     `json:"capacity"`
	Size          int     `json:"size"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	Epoch         uint64  `json:"epoch"`
}

// Stats snapshots this cache's counters. HitRate is hits/(hits+misses)
// over the cache's lifetime, 0 before any lookup.
func (c *ResultCache) Stats() Stats {
	h, m := c.hits.Load(), c.misses.Load()
	rate := 0.0
	if h+m > 0 {
		rate = float64(h) / float64(h+m)
	}
	return Stats{
		Capacity:      c.capacity(),
		Size:          c.Len(),
		Hits:          h,
		Misses:        m,
		HitRate:       rate,
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Epoch:         c.lastEpoch.Load(),
	}
}

// LayerStats is the hygiene part of a GET /stats body: one block per
// layer that is switched on. The serving layer fills it and hands it to
// the engine's self-description, which embeds it last. Pointers and
// omitempty, so a server with every knob off serves the /stats bytes of
// a build without this package.
type LayerStats struct {
	Cache        *Stats          `json:"cache,omitempty"`
	Singleflight *FlightStats    `json:"singleflight,omitempty"`
	Admission    *AdmissionStats `json:"admission,omitempty"`
}

// Intrusive list plumbing; every method runs under the stripe lock.

func (s *stripe) pushFront(n *node) {
	n.prev, n.next = nil, s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *stripe) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *stripe) moveToFront(n *node) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}
