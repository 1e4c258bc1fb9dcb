package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/forum"
	"repro/internal/secfile"
)

func TestPipelinePersistRoundTrip(t *testing.T) {
	texts, _ := corpusTexts(t, forum.TechSupport, 120, 61)
	p, err := Build(texts, Config{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	loaded, err := ReadPipeline(&buf)
	if err != nil {
		t.Fatalf("ReadPipeline: %v", err)
	}
	if loaded.Method() != p.Method() {
		t.Errorf("method %q != %q", loaded.Method(), p.Method())
	}
	if loaded.Stats() != p.Stats() {
		t.Error("stats differ after round trip")
	}
	if loaded.NumClusters() != p.NumClusters() {
		t.Error("cluster count differs")
	}
	// It accepts new posts.
	id, err := loaded.Add("My printer stopped printing. I replaced the toner. What should I check?")
	if err != nil {
		t.Fatalf("Add on loaded pipeline: %v", err)
	}
	if id != 120 {
		t.Errorf("Add returned id %d, want 120", id)
	}
}

// smallSnapshot builds a small pipeline and returns it with its
// snapshot bytes.
func smallSnapshot(t testing.TB) (*Pipeline, []byte) {
	t.Helper()
	texts, _ := corpusTexts(t, forum.TechSupport, 30, 63)
	p, err := Build(texts, Config{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return p, buf.Bytes()
}

// snapshotSections splits a valid snapshot into its two payloads.
func snapshotSections(t testing.TB, valid []byte) (head, mtch []byte) {
	t.Helper()
	f, err := secfile.Decode(valid, pipelineMagic, pipelineVersion)
	if err != nil {
		t.Fatal(err)
	}
	head, _ = f.Section("head")
	mtch, _ = f.Section("mtch")
	return head, mtch
}

// withHead re-encodes a valid snapshot around an edited header, so the
// container and its checksums are pristine and only ReadPipeline's own
// checks can object. The matcher sections stay the ones the original
// header named.
func withHead(t testing.TB, valid []byte, edit func(h *pipelineHead)) []byte {
	t.Helper()
	h, files, err := decodeSnapshot(valid)
	if err != nil {
		t.Fatal(err)
	}
	tags := matcherTags(h.Shards)
	edit(&h)
	head, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	secs := []secfile.Section{{Tag: "head", Data: head}}
	for i, tag := range tags {
		secs = append(secs, secfile.Section{Tag: tag, Data: files[i]})
	}
	return encodeSections(t, secs...)
}

func encodeSections(t testing.TB, secs ...secfile.Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := secfile.Encode(&buf, pipelineMagic, pipelineVersion, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadPipelineGarbage covers what ReadPipeline checks itself, on
// top of the container's and the matcher decoder's own matrices: the
// header must be readable and must describe the matcher beside it.
// Files of any other kind — which is what a snapshot written before the
// RFCP container existed is — are refused by their magic.
func TestReadPipelineGarbage(t *testing.T) {
	_, valid := smallSnapshot(t)
	head, mtch := snapshotSections(t, valid)
	for _, tc := range []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"not a pipeline file", []byte("\x0c\xff\x81\x03\x01\x01\x06Method, say"), "bad magic"},
		{"a bare matcher file", mtch, `bad magic "RFCM" (want "RFCP")`},
		{"empty", nil, "shorter than the 8-byte header"},
		{"truncated", valid[:len(valid)/2], "truncated"},
		{"header not JSON", encodeSections(t,
			secfile.Section{Tag: "head", Data: []byte("{")}, secfile.Section{Tag: "mtch", Data: mtch}),
			"decoding pipeline header"},
		{"no matcher section", encodeSections(t, secfile.Section{Tag: "head", Data: head}), `missing section "mtch"`},
		{"no header section", encodeSections(t, secfile.Section{Tag: "mtch", Data: mtch}), `missing section "head"`},
		{"matcher section damaged", encodeSections(t,
			secfile.Section{Tag: "head", Data: head}, secfile.Section{Tag: "mtch", Data: mtch[:len(mtch)-9]}),
			"truncated"},
		{"method is not the matcher's", withHead(t, valid, func(h *pipelineHead) { h.Method = "Content-MR" }),
			`matcher is "IntentIntent-MR"`},
		{"document count is not the matcher's", withHead(t, valid, func(h *pipelineHead) { h.Stats.NumDocs-- }),
			"header counts 29 documents, matcher holds 30"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPipeline(bytes.NewReader(tc.data)); err == nil {
				t.Fatal("loaded without error")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// failAfter is a writer that accepts n bytes, passing them on to w when
// it is set, and then fails.
type failAfter struct {
	n int
	w io.Writer
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	err := error(nil)
	if len(p) > f.n {
		p, err = p[:f.n], errDiskFull
	}
	f.n -= len(p)
	if f.w != nil {
		if _, werr := f.w.Write(p); werr != nil {
			return 0, werr
		}
	}
	return len(p), err
}

// TestWriteToFailingWriter fails the write in the container header, in
// the head section and in the matcher section: the error comes back
// TestReadPipelineRefusesUnitsOutOfOrder: a matcher keeps no unit ids —
// a document's unit in a cluster is its position among the cluster's
// documents — so a snapshot whose units are not in document order is
// refused by name, even when its ownership table agrees with its rows.
func TestReadPipelineRefusesUnitsOutOfOrder(t *testing.T) {
	_, valid := smallSnapshot(t)
	if _, err := ReadPipeline(bytes.NewReader(unitsOutOfOrder(t, valid))); err == nil || !strings.Contains(err.Error(), "document order") {
		t.Fatalf("ReadPipeline = %v, want a refusal naming document order", err)
	}
}

// with the count of bytes that did go out.
func TestWriteToFailingWriter(t *testing.T) {
	p, valid := smallSnapshot(t)
	for _, n := range []int{0, 60, len(valid) - 1} {
		got, err := p.WriteTo(&failAfter{n: n})
		if !errors.Is(err, errDiskFull) {
			t.Errorf("failing after %d bytes: error %v", n, err)
		}
		if got != int64(n) {
			t.Errorf("failing after %d bytes: WriteTo reported %d", n, got)
		}
	}
}

// smallShardedSnapshot is smallSnapshot's collection over two shards.
func smallShardedSnapshot(t testing.TB) (*Pipeline, []byte) {
	t.Helper()
	texts, _ := corpusTexts(t, forum.TechSupport, 30, 63)
	p, err := Build(texts, Config{Seed: 63, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return p, buf.Bytes()
}

// TestShardedSnapshotNegativePaths: what the header of a sharded
// snapshot says must describe the shard sections beside it — count,
// documents, clusters, routing seed, method — and the sections must be
// there and whole. Each case is refused by ReadPipeline and by the host
// decoder alike.
func TestShardedSnapshotNegativePaths(t *testing.T) {
	_, valid := smallShardedSnapshot(t)
	h, files, err := decodeSnapshot(valid)
	if err != nil {
		t.Fatal(err)
	}
	head, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	s0 := secfile.Section{Tag: "s000", Data: files[0]}
	s1 := secfile.Section{Tag: "s001", Data: files[1]}
	future := append([]byte(nil), valid...)
	future[4] = 9 // the container version, little-endian
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-10] ^= 0xFF // inside s001's payload
	for _, tc := range []struct {
		name    string
		data    []byte
		wantSub string
	}{
		// Zero is an unsharded pipeline's count, whose matcher section this is not.
		{"zero shards", withHead(t, valid, func(h *pipelineHead) { h.Shards = 0 }), `missing section "mtch"`},
		{"negative shards", withHead(t, valid, func(h *pipelineHead) { h.Shards = -1 }), "declares -1 shards"},
		{"more shards than tags", withHead(t, valid, func(h *pipelineHead) { h.Shards = maxShards + 1 }), "declares 1001 shards"},
		{"negative docs", withHead(t, valid, func(h *pipelineHead) { h.Stats.NumDocs = -1 }), "declares -1 documents"},
		{"wrong cluster count", withHead(t, valid, func(h *pipelineHead) { h.Stats.NumClusters = 99 }), "the snapshot declares 99"},
		{"wrong seed", withHead(t, valid, func(h *pipelineHead) { h.RouteSeed = 7777 }), "wrong seed"},
		{"wrong doc count", withHead(t, valid, func(h *pipelineHead) { h.Stats.NumDocs = 10 }), "hold 30 documents, the snapshot declares 10"},
		{"missing shard section", withHead(t, valid, func(h *pipelineHead) { h.Shards = 3 }), `missing section "s002"`},
		{"method is not the matcher's", withHead(t, valid, func(h *pipelineHead) { h.Method = "Content-MR" }), `names method "Content-MR"`},
		{"truncated", valid[:len(valid)/2], "truncated"},
		{"corrupt payload", corrupt, `section "s001" checksum mismatch`},
		{"shard section damaged", encodeSections(t, secfile.Section{Tag: "head", Data: head}, s0,
			secfile.Section{Tag: "s001", Data: files[1][:len(files[1])-9]}), "reading shard 1"},
		{"no header section", encodeSections(t, s0, s1), `missing section "head"`},
		{"header not JSON", encodeSections(t, secfile.Section{Tag: "head", Data: []byte("{")}, s0, s1), "decoding pipeline header"},
		{"unsupported version", future, "unsupported RFCP version 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPipeline(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("ReadPipeline: error %v does not mention %q", err, tc.wantSub)
			}
			path := filepath.Join(t.TempDir(), "snap")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadPart(path, []int{0}); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("ReadPart: error %v does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestReadPart: the host decoder returns the shards it was asked for
// with what the header says of the whole collection, reads an unsharded
// snapshot as the one shard of one, and digests the file so that only
// reads of the same snapshot agree.
func TestReadPart(t *testing.T) {
	sharded, shardedSnap := smallShardedSnapshot(t)
	plain, plainSnap := smallSnapshot(t)
	dir := t.TempDir()
	digests := map[uint64]string{}
	for _, tc := range []struct {
		name   string
		data   []byte
		own    []int
		shards int
		docs   map[int]int
	}{
		{"sharded, owning 1", shardedSnap, []int{1}, 2, map[int]int{1: sharded.ShardDocs()[1]}},
		{"sharded, owning all", shardedSnap, nil, 2, map[int]int{0: sharded.ShardDocs()[0], 1: sharded.ShardDocs()[1]}},
		{"unsharded", plainSnap, nil, 1, map[int]int{0: 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprint(tc.shards))
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			part, err := ReadPart(path, tc.own)
			if err != nil {
				t.Fatal(err)
			}
			if part.Shards != tc.shards || part.Docs != 30 || part.Clusters != plain.NumClusters() || part.Method != plain.Method() {
				t.Fatalf("part %+v", part)
			}
			if len(part.Owned) != len(tc.docs) {
				t.Fatalf("%d shards owned, want %d", len(part.Owned), len(tc.docs))
			}
			for s, want := range tc.docs {
				if mr, ok := part.Owned[s]; !ok || mr.NumDocs() != want {
					t.Fatalf("shard %d: present %t, want %d documents", s, ok, want)
				}
			}
			if other, ok := digests[part.Digest]; ok && other != string(tc.data) {
				t.Fatalf("two snapshots share the digest %d", part.Digest)
			}
			digests[part.Digest] = string(tc.data)
		})
	}
	if len(digests) != 2 {
		t.Fatalf("%d digests over two snapshots", len(digests))
	}
}

// TestSaveKeepsTheOldSnapshot: a save over a snapshot that fails at any
// byte leaves the path holding the old bytes exactly and no temporary
// file beside them, and what loads from it answers as the old snapshot.
func TestSaveKeepsTheOldSnapshot(t *testing.T) {
	const posts = 8 // each byte of the new snapshot is one failed save
	texts, _ := corpusTexts(t, forum.TechSupport, posts, 63)
	old, err := Build(texts, Config{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	var oldSnap bytes.Buffer
	if _, err := old.WriteTo(&oldSnap); err != nil {
		t.Fatal(err)
	}
	oldBytes := oldSnap.Bytes()
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := old.Save(path); err != nil {
		t.Fatal(err)
	}
	newer, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newer.Add("My raid array fails after the update. How do I rebuild it?"); err != nil {
		t.Fatal(err)
	}
	var next bytes.Buffer
	if _, err := newer.WriteTo(&next); err != nil {
		t.Fatal(err)
	}
	onDisk := func(want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("path holds %d bytes, want the %d of the snapshot", len(got), len(want))
		}
		if names, err := os.ReadDir(dir); err != nil || len(names) != 1 {
			t.Fatalf("directory holds %v (%v), want the snapshot alone", names, err)
		}
	}
	onDisk(oldBytes)
	for n := 0; n < next.Len(); n++ {
		err := save(path, func(w io.Writer) error {
			_, err := (&failAfter{n: n, w: w}).Write(next.Bytes())
			return err
		})
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("save failing after %d bytes: error %v", n, err)
		}
		onDisk(oldBytes)
		if n%(next.Len()/4) != 0 {
			continue
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < posts; id++ {
			if got, want := fmt.Sprint(loaded.Related(id, 5)), fmt.Sprint(old.Related(id, 5)); got != want {
				t.Fatalf("after a save failing at byte %d, Related(%d) = %s, the old snapshot answers %s", n, id, got, want)
			}
		}
	}
	if err := newer.Save(path); err != nil {
		t.Fatal(err)
	}
	onDisk(next.Bytes())
}

// TestSaveErrors: a save that cannot create its temporary file or cannot
// rename it into place fails with an error naming the path and leaves
// nothing behind.
func TestSaveErrors(t *testing.T) {
	p, _ := smallSnapshot(t)
	dir := t.TempDir()
	for _, path := range []string{
		filepath.Join(dir, "missing", "snap"), // no directory to hold it
		dir,                                   // a directory is in the way of the rename
	} {
		if err := p.Save(path); err == nil || !strings.Contains(err.Error(), "saving "+path) {
			t.Errorf("Save(%s): error %v does not name the path", path, err)
		}
	}
	if names, err := os.ReadDir(dir); err != nil || len(names) != 0 {
		t.Fatalf("failed saves left %v (%v)", names, err)
	}
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteShardDir(filepath.Join(blocker, "sub")); err == nil {
		t.Error("WriteShardDir below a file should fail")
	}
}

// TestLoadRefusesShardDirectory: a directory of the layout sharded
// pipelines were once saved in — manifest.json beside shard-NNNN.mr
// files — is refused by name, given as a path, as a WriteShardDir
// directory or to a fleet host.
func TestLoadRefusesShardDirectory(t *testing.T) {
	_, valid := smallSnapshot(t)
	_, mtch := snapshotSections(t, valid)
	dir := t.TempDir()
	manifest := `{"version":1,"name":"IntentIntent-MR","shards":1,"route_seed":42,"docs":30,"clusters":6}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.mr"), mtch, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() (*Pipeline, error){
		"Load":         func() (*Pipeline, error) { return Load(dir) },
		"ReadShardDir": func() (*Pipeline, error) { return ReadShardDir(dir) },
	} {
		if _, err := load(); err == nil || !strings.Contains(err.Error(), "shard directory (manifest.json beside shard-NNNN.mr files)") {
			t.Errorf("%s of a shard directory: error %v does not name its layout", name, err)
		}
	}
	if _, err := ReadPart(dir, nil); err == nil || !strings.Contains(err.Error(), "shard directory (manifest.json beside shard-NNNN.mr files)") {
		t.Errorf("ReadPart of a shard directory: error %v does not name its layout", err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nothing-here")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Load of a missing file: %v", err)
	}
}
