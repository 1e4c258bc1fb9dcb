package shard

import (
	"strings"
	"testing"
)

// DecodeShards is the fleet loader: a shard server owning a subset of
// partitions must still score collection-globally, because every
// non-owned shard file is streamed through the shared statistics pools
// before being dropped. That it does is internal/serve's model test
// (its coordinator rows serve hosts that load half the shards each);
// these tests pin what it loads and the loader's error surface.

func TestReadDirShardsPartialLoad(t *testing.T) {
	_, g := buildGroup(t, 120, 4)
	files := encode(t, g)

	own := []int{1, 3}
	shards, err := DecodeShards(files, g.Seed(), g.NumDocs(), g.NumClusters(), own)
	if err != nil {
		t.Fatalf("DecodeShards(%v): %v", own, err)
	}
	if len(shards) != len(own) {
		t.Fatalf("want %d owned matchers, got %d", len(own), len(shards))
	}
	for _, s := range own {
		sh, ok := shards[s]
		if !ok {
			t.Fatalf("owned shard %d missing from the result", s)
		}
		if sh.NumDocs() != g.ShardMR(s).NumDocs() {
			t.Fatalf("shard %d holds %d docs, group's partition holds %d",
				s, sh.NumDocs(), g.ShardMR(s).NumDocs())
		}
	}

	// Routing is a pure function of (seed, id, n): a directory replayed
	// from the seed and counts alone — what a coordinator builds — must agree
	// with the live group's for every document it has been told of, and
	// hold nothing beyond: a half-grown directory answers "unknown" for
	// the other half and for an id two billion past it alike, from the
	// table, without replaying the routing up to the id.
	docs := g.NumDocs()
	half := NewDirectory(g.Seed(), len(files))
	half.Grow(docs / 2)
	full := NewDirectory(g.Seed(), len(files))
	if !full.Grow(docs) || full.Grow(docs) || full.NumDocs() != docs {
		t.Fatalf("Grow(%d) then Grow again: NumDocs %d", docs, full.NumDocs())
	}
	for d := 0; d < g.NumDocs(); d++ {
		ws, wl, _ := g.dir.Lookup(d)
		if s, l, ok := full.Lookup(d); !ok || s != ws || l != wl {
			t.Fatalf("replayed Lookup(%d) = (%d, %d, %t), group holds (%d, %d)", d, s, l, ok, ws, wl)
		}
		s, l, ok := half.Lookup(d)
		if known := d < docs/2; ok != known || (known && (s != ws || l != wl)) {
			t.Fatalf("Lookup(%d) from a half-grown directory = (%d, %d, %t), group holds (%d, %d)", d, s, l, ok, ws, wl)
		}
	}
	for _, d := range []int{-1, g.NumDocs(), 2_000_000_000} {
		if _, _, ok := full.Lookup(d); ok {
			t.Fatalf("Lookup(%d) succeeded on a directory of %d documents", d, full.NumDocs())
		}
	}
	if half.NumDocs() != docs/2 {
		t.Fatalf("Lookup registered ids (NumDocs %d)", half.NumDocs())
	}
}

func TestReadDirShardsErrors(t *testing.T) {
	_, g := buildGroup(t, 60, 2)
	files := encode(t, g)
	decode := func(files [][]byte, own []int) error {
		_, err := DecodeShards(files, g.Seed(), g.NumDocs(), g.NumClusters(), own)
		return err
	}

	for _, own := range [][]int{{-1}, {2}} {
		if err := decode(files, own); err == nil || !strings.Contains(err.Error(), "cannot own") {
			t.Fatalf("out-of-range own %v: got %v", own, err)
		}
	}
	// Empty own is every shard.
	if shards, err := DecodeShards(files, g.Seed(), g.NumDocs(), g.NumClusters(), nil); err != nil || len(shards) != 2 {
		t.Fatalf("own nothing: %d shards, %v", len(shards), err)
	}
	// A corrupt NON-owned file must still fail the load: its statistics
	// are part of every owned shard's scores.
	files[1] = []byte("garbage")
	if err := decode(files, []int{0}); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("corrupt non-owned shard file: got %v", err)
	}
}
