package index

import "sync"

// GlobalStats is a collection-statistics pool shared by several Index
// instances that together hold one logical collection — the sharded
// serving layer partitions each intention cluster's units across N
// per-shard indices, and Eq 7–9 scoring depends on three
// collection-level quantities: the unit count |I| (Eq 9's N), the
// per-term document frequency |Iᵗ| (Eq 9's n), and the average
// unique-term count feeding the NU length normalization (Eq 7/8). An
// attached index reads those from the pool instead of its local state,
// so every shard scores exactly as the single unsharded index would —
// the pool aggregates are the integers that index derives locally.
//
// Locking: the pool has its own RWMutex, because shards write it under
// different owners' locks. It is taken inside the owner's (match.MR.mu
// → GlobalStats.mu): Add takes its write lock under the owner's write
// lock, and every read path its read lock under the owner's read lock.
// Shards therefore update and read the pool concurrently without
// deadlock, and a query observes a consistent (units, totalUnique, df)
// triple for its whole scan. df is a column over dictionary ids, so the
// indices of one pool must share one Dict.
type GlobalStats struct {
	mu          sync.RWMutex
	dict        *Dict
	units       int
	totalUnique int64
	df          []int32
}

// NewGlobalStats returns an empty pool.
func NewGlobalStats() *GlobalStats { return &GlobalStats{} }

// addLocked moves a term's pooled document frequency by n, growing the
// column to the dictionary as it stands. Callers hold the pool's write
// lock.
func (gs *GlobalStats) addLocked(term int32, n int) {
	if int(term) >= len(gs.df) {
		gs.df = append(gs.df, make([]int32, gs.dict.Terms().Len()-len(gs.df))...)
	}
	gs.df[term] += int32(n)
}

// dfLocked returns the pooled document frequency of a term (Eq 9's n
// across all attached indices).
func (gs *GlobalStats) dfLocked(term int32) int {
	if uint(term) < uint(len(gs.df)) {
		return int(gs.df[term])
	}
	return 0
}

// AttachStats folds the index's current contents into the pool and
// makes every subsequent scoring read (Eq 9's N and n, the NU average)
// come from it. Attach each member index exactly once — attaching twice
// would double-count its contribution. The owner holds its write lock
// around AttachStats; afterwards Add keeps the pool in sync. Pooling
// indices of different dictionaries is a bug and panics.
func (ix *Index) AttachStats(gs *GlobalStats) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.dict == nil {
		gs.dict = ix.dict
	} else if gs.dict != ix.dict {
		panic("index: AttachStats: the pool counts terms of another dictionary")
	}
	gs.units += len(ix.denoms)
	gs.totalUnique += ix.totalUnique
	for t, s := range ix.slot {
		gs.addLocked(t, ix.listAt(s).len())
	}
	ix.global = gs
}

// rlockStats acquires the pool read lock when the index is attached to
// one and reports whether it did. Callers must call gs.mu.RUnlock iff it
// returns true. The n/avgUnique/df effective accessors assume this lock
// is held.
func (ix *Index) rlockStats() bool {
	if ix.global == nil {
		return false
	}
	ix.global.mu.RLock()
	return true
}

// n returns the effective collection size for Eq 9: the pooled unit
// count when attached, the local count otherwise.
func (ix *Index) n() int {
	if ix.global != nil {
		return ix.global.units
	}
	return len(ix.denoms)
}

// df returns the effective document frequency of a term.
func (ix *Index) df(term int32) int {
	if ix.global != nil {
		return ix.global.dfLocked(term)
	}
	return ix.list(term).len()
}
