package match

import (
	"fmt"

	"repro/internal/index"
)

// Split partitions a built matcher's documents into n independent shard
// matchers: shard s receives every document d with route(d) == s, its
// refined segments re-indexed into per-shard cluster indices attached
// to the shared collection-statistics pools stats (one pool per
// intention cluster, len(stats) == NumClusters). Because every shard
// scores against the pooled Eq 9 N and n and the pooled NU average, and
// because indexing a segment's terms again recomputes the same
// term-ordered Eq 7 denominator the original build did, a shard's scores
// are bit-identical to the unsharded matcher's for the same (query,
// result) pair — the equivalence the sharded serving layer is built on.
//
// Documents are walked in ascending global id order, so shard-local
// document ids (and therefore per-cluster unit ids) ascend with global
// ids; the caller reconstructs the global↔local mapping by replaying
// route over 0..NumDocs-1. Clustering is not re-run: shards share the
// source's frozen centroids, configuration and term dictionary, and each
// carries a copy of its BuildStats. The source is only read and remains
// usable; it shares no index state with the shards.
func (mr *MR) Split(n int, route func(doc int) int, stats []*index.GlobalStats) ([]*MR, error) {
	if n < 1 {
		return nil, fmt.Errorf("match: cannot split into %d shards", n)
	}
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	k := len(mr.clusters)
	if len(stats) != k {
		return nil, fmt.Errorf("match: %d stats pools for %d clusters", len(stats), k)
	}
	shards := make([]*MR, n)
	for s := range shards {
		shards[s] = &MR{
			name:      mr.name,
			cfg:       mr.cfg,
			dict:      mr.dict,
			unitDoc:   make([][]int32, k),
			centroids: mr.centroids,
			stats:     mr.stats,
		}
	}
	var row []int32
	for d := 0; d < mr.segs.numDocs(); d++ {
		s := route(d)
		if s < 0 || s >= n {
			return nil, fmt.Errorf("match: route(%d) = %d out of [0, %d)", d, s, n)
		}
		sh := shards[s]
		rows := mr.segs.rows(d)
		sh.segs.startDoc(rows.n)
		local := int32(sh.segs.numDocs() - 1)
		for rows.n > 0 {
			var c int
			c, row = rows.next(row[:0])
			sh.segs.appendSeg(c, row)
			sh.unitDoc[c] = append(sh.unitDoc[c], local)
		}
		sh.before = append(sh.before, mr.before[d])
	}
	for _, sh := range shards {
		// The same token lists through the same constructor reproduce the
		// original units' postings and Eq 7 denominators exactly.
		sh.indexSegs(k)
		for c, ix := range sh.clusters {
			ix.AttachStats(stats[c])
		}
	}
	return shards, nil
}

// AttachGlobalStats attaches each of the matcher's cluster indices to
// the corresponding pool, folding the index's contents in (see
// index.AttachStats). It is the post-load counterpart of Split's
// attachment: shard files persisted with the plain MR codec carry only
// local state, so the loader recreates the pools by attaching every
// shard of a group in turn. Attach a matcher at most once, before
// concurrent use.
func (mr *MR) AttachGlobalStats(stats []*index.GlobalStats) error {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	if len(stats) != len(mr.clusters) {
		return fmt.Errorf("match: %d stats pools for %d clusters", len(stats), len(mr.clusters))
	}
	for c, ix := range mr.clusters {
		ix.AttachStats(stats[c])
	}
	return nil
}
