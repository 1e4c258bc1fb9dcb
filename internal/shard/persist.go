package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/index"
	"repro/internal/match"
)

// Persistence for a shard group is a directory, not a single stream: a
// small JSON manifest naming the topology (shard count, routing seed,
// document and cluster counts) plus one shard file per shard, each in
// the match.MR codec, so a shard file is readable by the plain ReadMR
// and inspectable with the same tooling as an unsharded snapshot's
// matcher. The manifest is what makes the directory reconstructible:
// routing is a pure function of (seed, id), so the loader rebuilds the
// whole global↔local id directory by replaying the route over
// 0..Docs-1, then cross-checks every shard's document count against
// what the routing predicts — a wrong seed, a missing document, or
// shard files from a different build fail loudly instead of serving
// wrong neighbors.

// manifestVersion is the shard directory layout version.
const manifestVersion = 1

// ManifestName is the manifest's file name inside a shard directory.
const ManifestName = "manifest.json"

// ShardFileName returns shard s's file name inside a shard directory.
func ShardFileName(s int) string { return fmt.Sprintf("shard-%04d.mr", s) }

// Manifest is the JSON topology record written next to the shard
// files. It is exported because the fleet layer (internal/fleet) plans
// its topology from it: shard servers load a subset of the directory
// and need the global shard count, routing seed, and document count to
// describe themselves to the coordinator.
type Manifest struct {
	Version   int    `json:"version"`
	Name      string `json:"name"`
	Shards    int    `json:"shards"`
	RouteSeed uint64 `json:"route_seed"`
	Docs      int    `json:"docs"`
	Clusters  int    `json:"clusters"`
}

// WriteDir persists the group into dir (created if needed): the
// manifest plus one MR-codec file per shard. It holds addMu for the
// duration so the manifest's document count and every shard file
// describe the same frozen population; queries are not blocked.
func (g *Group) WriteDir(dir string) error {
	g.addMu.Lock()
	defer g.addMu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: creating %s: %w", dir, err)
	}
	m := Manifest{
		Version:   manifestVersion,
		Name:      g.Name(),
		Shards:    g.n,
		RouteSeed: g.Seed(),
		Docs:      g.NumDocs(),
		Clusters:  g.NumClusters(),
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("shard: writing manifest: %w", err)
	}
	for s, sh := range g.shards {
		if err := writeShardFile(filepath.Join(dir, ShardFileName(s)), sh); err != nil {
			return err
		}
	}
	return nil
}

func writeShardFile(path string, sh *match.MR) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("shard: creating %s: %w", filepath.Base(path), err)
	}
	_, err = sh.WriteTo(f) // one Write of the whole file; nothing to buffer
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("shard: writing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// ReadDir loads a shard group from a directory written by WriteDir:
// manifest, shard files, shared statistics pools (rebuilt by attaching
// every shard — the files carry only local state), and the replayed
// routing directory. Every failure is a descriptive error naming the
// offending file; nothing panics on truncated or corrupt input.
func ReadDir(dir string) (*Group, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	shards, stats, err := readShards(dir, m, nil)
	if err != nil {
		return nil, err
	}
	g := newGroup(shards, stats, m.RouteSeed)
	g.dir.Grow(m.Docs)
	return g, nil
}

// ReadManifest reads and validates a shard directory's manifest without
// touching the shard files.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return m, fmt.Errorf("shard: reading manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("shard: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("shard: unsupported manifest version %d (want %d)", m.Version, manifestVersion)
	}
	if m.Shards < 1 {
		return m, fmt.Errorf("shard: manifest declares %d shards", m.Shards)
	}
	if m.Docs < 0 || m.Clusters < 1 {
		return m, fmt.Errorf("shard: manifest declares %d documents in %d clusters", m.Docs, m.Clusters)
	}
	return m, nil
}

// readShardFile loads one shard file into the group's dictionary,
// cross-checking its cluster count against the manifest's.
func readShardFile(dir string, s int, dict *index.Dict, clusters, declared int) (*match.MR, error) {
	name := ShardFileName(s)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("shard: opening %s (manifest declares %d shards): %w", name, declared, err)
	}
	sh, err := match.ReadMR(data, dict)
	if err != nil {
		return nil, fmt.Errorf("shard: reading %s: %w", name, err)
	}
	if got := sh.NumClusters(); got != clusters {
		return nil, fmt.Errorf("shard: %s has %d clusters, manifest declares %d", name, got, clusters)
	}
	return sh, nil
}

// ReadDirShards loads the shards named in own from a shard directory,
// attached to statistics pools that cover the ENTIRE collection. Eq 7–9
// scores depend on collection-global quantities (unit count N, per-term
// document frequency, average unique-term count), so a server holding
// one partition must still accumulate every shard's contribution into
// the shared pools; ReadDirShards streams the non-owned shard files
// through the pools one at a time and drops them, keeping steady-state
// memory proportional to the owned partitions. The owned matchers come
// back keyed by shard id, each verified against the routing replay
// exactly as ReadDir verifies a full load.
func ReadDirShards(dir string, own []int) (map[int]*match.MR, Manifest, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, m, err
	}
	want := make(map[int]bool, len(own))
	for _, s := range own {
		if s < 0 || s >= m.Shards {
			return nil, m, fmt.Errorf("shard: cannot own shard %d of %d", s, m.Shards)
		}
		want[s] = true
	}
	shards, _, err := readShards(dir, m, want)
	if err != nil {
		return nil, m, err
	}
	out := make(map[int]*match.MR, len(want))
	for s := range want {
		out[s] = shards[s]
	}
	return out, m, nil
}

// readShards loads every shard file of m into one dictionary and one set
// of pools, and checks the files against the routing replay. It returns
// the shards in keep (nil: all); the others are attached as they are
// read and dropped. The kept ones attach last, so each pool's df column
// grows to the whole dictionary at once, without append slack.
func readShards(dir string, m Manifest, keep map[int]bool) ([]*match.MR, []*index.GlobalStats, error) {
	stats := make([]*index.GlobalStats, m.Clusters)
	for c := range stats {
		stats[c] = index.NewGlobalStats()
	}
	attach := func(s int, sh *match.MR) error {
		if err := sh.AttachGlobalStats(stats); err != nil {
			return fmt.Errorf("shard: attaching %s: %w", ShardFileName(s), err)
		}
		return nil
	}
	dict := index.NewDict() // one for the group, as a group split in memory has
	shards := make([]*match.MR, m.Shards)
	docs := make([]int, m.Shards)
	for s := range shards {
		sh, err := readShardFile(dir, s, dict, m.Clusters, m.Shards)
		if err != nil {
			return nil, nil, err
		}
		docs[s] = sh.NumDocs()
		if keep == nil || keep[s] {
			shards[s] = sh
		} else if err := attach(s, sh); err != nil {
			return nil, nil, err
		}
	}
	for s, sh := range shards {
		if sh != nil {
			if err := attach(s, sh); err != nil {
				return nil, nil, err
			}
		}
	}
	replay := NewDirectory(m.RouteSeed, m.Shards)
	replay.Grow(m.Docs)
	for s, want := range replay.ShardDocs() {
		if docs[s] != want {
			return nil, nil, fmt.Errorf("shard: %s holds %d documents but routing %d over seed %d assigns it %d (wrong seed, or shard files from a different build?)",
				ShardFileName(s), docs[s], m.Docs, m.RouteSeed, want)
		}
	}
	return shards, stats, nil
}
