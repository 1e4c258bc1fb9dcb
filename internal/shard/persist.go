package shard

import (
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/match"
)

// Persistence: a group is one match.MR file per shard, which
// internal/core embeds in the pipeline snapshot beside a header holding
// the routing seed and the document and cluster counts. Routing is a
// pure function of (seed, id), so the decoder rebuilds the global↔local
// id directory by replaying the route over 0..docs-1 and cross-checks
// every shard's document count against it — a wrong seed, a missing
// document, or shards from a different build fail loudly instead of
// serving wrong neighbors.

// Decode loads a group from its shard files (each ShardMR's WriteTo, in
// shard order) for a collection of docs documents in clusters intention
// clusters routed by seed: one dictionary, statistics pools rebuilt by
// attaching every shard, and the replayed routing directory. A failure names the
// offending shard; nothing panics on truncated or corrupt input.
func Decode(files [][]byte, seed uint64, docs, clusters int) (*Group, error) {
	shards, err := decode(files, seed, docs, clusters, nil)
	if err != nil {
		return nil, err
	}
	g := newGroup(shards, seed)
	g.dir.Grow(docs)
	return g, nil
}

// DecodeShards is Decode for a server that holds part of the
// collection: it returns the shards in own (every shard when own is
// empty), keyed by shard id. Eq 7–9 scores depend on collection-global
// statistics, so every other shard is decoded, attached to the pools and
// dropped, one at a time: steady-state memory stays proportional to the
// owned partitions.
func DecodeShards(files [][]byte, seed uint64, docs, clusters int, own []int) (map[int]*match.MR, error) {
	for _, s := range own {
		if s < 0 || s >= len(files) {
			return nil, fmt.Errorf("shard: cannot own shard %d of %d", s, len(files))
		}
	}
	shards, err := decode(files, seed, docs, clusters, own)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*match.MR, len(shards))
	for s, sh := range shards {
		if sh != nil {
			out[s] = sh
		}
	}
	return out, nil
}

// decode reads every shard file into one dictionary and one set of
// pools, and checks the shards against the declared counts and the
// routing replay. It returns the shards in own (empty: all); the others
// are attached as they are read and dropped. The kept ones attach last,
// so each pool's df column grows to the whole dictionary at once,
// without append slack.
func decode(files [][]byte, seed uint64, docs, clusters int, own []int) ([]*match.MR, error) {
	if len(files) < 1 {
		return nil, fmt.Errorf("shard: a sharded snapshot needs at least 1 shard, has %d", len(files))
	}
	if docs < 0 || clusters < 1 {
		return nil, fmt.Errorf("shard: snapshot declares %d documents in %d clusters", docs, clusters)
	}
	var stats []*index.GlobalStats
	attach := func(s int, sh *match.MR) error {
		if err := sh.AttachGlobalStats(stats); err != nil {
			return fmt.Errorf("shard: attaching shard %d: %w", s, err)
		}
		return nil
	}
	dict := index.NewDict() // one for the group, as a group split in memory has
	shards := make([]*match.MR, len(files))
	counts := make([]int, len(files))
	held := 0
	for s, file := range files {
		sh, err := match.ReadMR(file, dict)
		if err != nil {
			return nil, fmt.Errorf("shard: reading shard %d: %w", s, err)
		}
		if got := sh.NumClusters(); got != clusters {
			return nil, fmt.Errorf("shard: shard %d has %d clusters, the snapshot declares %d", s, got, clusters)
		}
		if stats == nil { // sized only once a shard has vouched for the count
			stats = newPools(clusters)
		}
		counts[s] = sh.NumDocs()
		held += counts[s]
		if len(own) == 0 || slices.Contains(own, s) {
			shards[s] = sh
		} else if err := attach(s, sh); err != nil {
			return nil, err
		}
	}
	for s, sh := range shards {
		if sh != nil {
			if err := attach(s, sh); err != nil {
				return nil, err
			}
		}
	}
	if held != docs { // checked before the replay, which allocates per document
		return nil, fmt.Errorf("shard: the shards hold %d documents, the snapshot declares %d", held, docs)
	}
	replay := NewDirectory(seed, len(files))
	replay.Grow(docs)
	for s, want := range replay.ShardDocs() {
		if counts[s] != want {
			return nil, fmt.Errorf("shard: shard %d holds %d documents but routing %d over seed %d assigns it %d (wrong seed, or shards from a different build?)",
				s, counts[s], docs, seed, want)
		}
	}
	return shards, nil
}
