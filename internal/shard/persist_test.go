package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/forum"
	"repro/internal/match"
)

// Persistence tests: the round trip keeps the topology and keeps taking
// adds (that it ranks as before is internal/serve's model test), and
// every damaged-directory shape — missing files, truncated or corrupt
// payloads, lying manifests — must come back as a descriptive error
// naming the offending file, never a panic. testdata/corrupt is a
// committed regression fixture (a manifest over a garbage shard file) so
// the corrupt-payload path stays covered even if the generated cases
// drift.

func buildGroup(t *testing.T, numDocs, shards int) (*match.MR, *Group) {
	t.Helper()
	docs := genDocs(t, forum.TechSupport, numDocs, 42)
	mr := match.NewMR("MR", docs, match.MRConfig{Seed: 7})
	g, err := NewGroup(mr, shards, 42)
	if err != nil {
		t.Fatal(err)
	}
	return mr, g
}

func TestShardDirRoundTrip(t *testing.T) {
	mr, g := buildGroup(t, 150, 4)
	dir := t.TempDir()
	if err := g.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != g.NumDocs() || loaded.NumShards() != 4 || loaded.Seed() != 42 {
		t.Fatalf("loaded group topology %d/%d/%d, want %d/4/42",
			loaded.NumDocs(), loaded.NumShards(), loaded.Seed(), g.NumDocs())
	}
	// It keeps serving adds, under the ids the unsharded matcher
	// gives them.
	extra := genDocs(t, forum.TechSupport, 152, 42)[150:]
	for _, doc := range extra {
		wantID := mr.Add(doc)
		if gotID := loaded.Add(doc); gotID != wantID {
			t.Fatalf("loaded add assigned id %d, want %d", gotID, wantID)
		}
	}
}

// editManifest rewrites one field of a written manifest in place.
func editManifest(t *testing.T, dir string, mutate func(m map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadDirNegativePaths(t *testing.T) {
	_, g := buildGroup(t, 80, 2)
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		wantSub string
	}{
		{
			name:    "missing manifest",
			corrupt: func(t *testing.T, dir string) { os.Remove(filepath.Join(dir, ManifestName)) },
			wantSub: "reading manifest",
		},
		{
			name: "corrupt manifest json",
			corrupt: func(t *testing.T, dir string) {
				os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644)
			},
			wantSub: "decoding manifest",
		},
		{
			name: "unsupported version",
			corrupt: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m map[string]any) { m["version"] = 9 })
			},
			wantSub: "unsupported manifest version 9",
		},
		{
			name: "zero shards",
			corrupt: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m map[string]any) { m["shards"] = 0 })
			},
			wantSub: "declares 0 shards",
		},
		{
			name: "negative docs",
			corrupt: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m map[string]any) { m["docs"] = -1 })
			},
			wantSub: "declares -1 documents",
		},
		{
			name: "missing shard file",
			corrupt: func(t *testing.T, dir string) {
				os.Remove(filepath.Join(dir, ShardFileName(1)))
			},
			wantSub: "opening shard-0001.mr",
		},
		{
			name: "shard count mismatch",
			corrupt: func(t *testing.T, dir string) {
				// The manifest promises a third shard the directory lacks.
				editManifest(t, dir, func(m map[string]any) { m["shards"] = 3 })
			},
			wantSub: "manifest declares 3 shards",
		},
		{
			name: "truncated shard file",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, ShardFileName(0))
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(path, info.Size()/2); err != nil {
					t.Fatal(err)
				}
			},
			wantSub: "reading shard-0000.mr",
		},
		{
			name: "corrupt shard payload",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, ShardFileName(1))
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for i := 20; i < len(raw) && i < 200; i++ {
					raw[i] ^= 0xFF
				}
				os.WriteFile(path, raw, 0o644)
			},
			wantSub: "shard-0001.mr",
		},
		{
			name: "cluster count mismatch",
			corrupt: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m map[string]any) { m["clusters"] = 99 })
			},
			wantSub: "manifest declares 99",
		},
		{
			name: "wrong routing seed",
			corrupt: func(t *testing.T, dir string) {
				// A different seed routes the documents differently; the
				// per-shard doc-count cross-check must catch it.
				editManifest(t, dir, func(m map[string]any) { m["route_seed"] = 7777 })
			},
			wantSub: "wrong seed",
		},
		{
			name: "wrong doc count",
			corrupt: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m map[string]any) { m["docs"] = 10 })
			},
			wantSub: "holds",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := g.WriteDir(dir); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir)
			loaded, err := ReadDir(dir)
			if err == nil {
				t.Fatalf("ReadDir succeeded on %s (loaded %d docs)", tc.name, loaded.NumDocs())
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestReadDirCorruptFixture pins the committed crasher: a manifest over
// a file of garbage bytes must produce a decode error naming the file.
func TestReadDirCorruptFixture(t *testing.T) {
	_, err := ReadDir(filepath.Join("testdata", "corrupt"))
	if err == nil {
		t.Fatal("ReadDir accepted the corrupt fixture")
	}
	if !strings.Contains(err.Error(), "shard-0000.mr") {
		t.Fatalf("error %q does not name the corrupt shard file", err)
	}
}

func TestWriteDirErrors(t *testing.T) {
	_, g := buildGroup(t, 40, 2)
	// Target is a file, not a directory.
	base := t.TempDir()
	blocker := filepath.Join(base, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteDir(filepath.Join(blocker, "sub")); err == nil {
		t.Error("WriteDir into a file path should fail")
	}
	// The directory is there, but a file of it cannot be written: a
	// directory sits where the file would go. (Permission bits would not
	// stop a test run as root.)
	for _, name := range []string{ManifestName, ShardFileName(1)} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteDir(dir); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("WriteDir over an unwritable %s: error %v does not name it", name, err)
		}
	}
}

// TestShardDirLegacyCompactEquivalence: for shard counts 1, 2, and 4, a
// written directory loads back whole — and so does the same directory
// under the manifest earlier builds wrote, which carried an informational
// "codec" field this build neither writes nor reads.
func TestShardDirLegacyCompactEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, g := buildGroup(t, 120, shards)
			dir := t.TempDir()
			if err := g.WriteDir(dir); err != nil {
				t.Fatal(err)
			}
			for _, manifest := range []string{"current", "with codec field"} {
				loaded, err := ReadDir(dir)
				if err != nil {
					t.Fatalf("%s manifest: %v", manifest, err)
				}
				if loaded.NumDocs() != g.NumDocs() || loaded.NumShards() != shards {
					t.Fatalf("%s manifest: %d docs in %d shards, want %d in %d", manifest, loaded.NumDocs(), loaded.NumShards(), g.NumDocs(), shards)
				}
				editManifest(t, dir, func(m map[string]any) { m["codec"] = "compact" })
			}
		})
	}
}
