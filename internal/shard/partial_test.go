package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ReadDirShards is the fleet loader: a shard server owning a subset of
// partitions must still score collection-globally, because every
// non-owned shard file is streamed through the shared statistics pools
// before being dropped. That it does is internal/serve's model test
// (its coordinator rows serve hosts that load half the shards each);
// these tests pin what it loads and the loader's error surface.

func TestReadDirShardsPartialLoad(t *testing.T) {
	_, g := buildGroup(t, 120, 4)
	dir := t.TempDir()
	if err := g.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	own := []int{1, 3}
	shards, m, err := ReadDirShards(dir, own)
	if err != nil {
		t.Fatalf("ReadDirShards(%v): %v", own, err)
	}
	if m.Shards != 4 || m.Docs != g.NumDocs() || m.RouteSeed != g.Seed() {
		t.Fatalf("manifest diverged: %+v", m)
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
	// from the manifest alone — what a coordinator builds — must agree
	// with the live group's for every document it has been told of, and
	// hold nothing beyond: a half-grown directory answers "unknown" for
	// the other half and for an id two billion past it alike, from the
	// table, without replaying the routing up to the id.
	half := NewDirectory(m.RouteSeed, m.Shards)
	half.Grow(m.Docs / 2)
	full := NewDirectory(m.RouteSeed, m.Shards)
	if !full.Grow(m.Docs) || full.Grow(m.Docs) || full.NumDocs() != g.NumDocs() {
		t.Fatalf("Grow(%d) then Grow again: NumDocs %d", m.Docs, full.NumDocs())
	}
	for d := 0; d < g.NumDocs(); d++ {
		ws, wl, _ := g.dir.Lookup(d)
		if s, l, ok := full.Lookup(d); !ok || s != ws || l != wl {
			t.Fatalf("replayed Lookup(%d) = (%d, %d, %t), group holds (%d, %d)", d, s, l, ok, ws, wl)
		}
		s, l, ok := half.Lookup(d)
		if known := d < m.Docs/2; ok != known || (known && (s != ws || l != wl)) {
			t.Fatalf("Lookup(%d) from a half-grown directory = (%d, %d, %t), group holds (%d, %d)", d, s, l, ok, ws, wl)
		}
	}
	for _, d := range []int{-1, g.NumDocs(), 2_000_000_000} {
		if _, _, ok := full.Lookup(d); ok {
			t.Fatalf("Lookup(%d) succeeded on a directory of %d documents", d, full.NumDocs())
		}
	}
	if half.NumDocs() != m.Docs/2 {
		t.Fatalf("Lookup registered ids (NumDocs %d)", half.NumDocs())
	}
}

func TestReadDirShardsErrors(t *testing.T) {
	_, g := buildGroup(t, 60, 2)
	dir := t.TempDir()
	if err := g.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	if _, _, err := ReadDirShards(filepath.Join(dir, "nope"), []int{0}); err == nil {
		t.Fatal("missing directory must fail")
	}
	for _, own := range [][]int{{-1}, {2}} {
		if _, _, err := ReadDirShards(dir, own); err == nil || !strings.Contains(err.Error(), "cannot own") {
			t.Fatalf("out-of-range own %v: got %v", own, err)
		}
	}
	// A corrupt NON-owned file must still fail the load: its statistics
	// are part of every owned shard's scores.
	if err := os.WriteFile(filepath.Join(dir, ShardFileName(1)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDirShards(dir, []int{0}); err == nil || !strings.Contains(err.Error(), ShardFileName(1)) {
		t.Fatalf("corrupt non-owned shard file: got %v", err)
	}
}
