package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/secfile"
)

// Persistence tests: the shard files decode back to the topology and the
// loaded group keeps taking adds (that it ranks as before is
// internal/serve's model test), and every damaged input the decoder can
// be handed — a missing, truncated or corrupt shard file, counts or a
// seed that do not describe the files — must come back as a descriptive
// error naming the offending shard, never a panic. The header and the
// container around the files are internal/core's, and tested there.

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

// encode returns the group's shard files, as a pipeline snapshot holds
// them.
func encode(t *testing.T, g *Group) [][]byte {
	t.Helper()
	files := make([][]byte, g.NumShards())
	for s := range files {
		var buf bytes.Buffer
		if _, err := g.ShardMR(s).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		files[s] = buf.Bytes()
	}
	return files
}

// TestShardDirRoundTrip: at 1, 2 and 4 shards a group's files decode
// back to the same topology, and the decoded group keeps taking adds
// under the ids the unsharded matcher gives them.
func TestShardDirRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mr, g := buildGroup(t, 150, shards)
			loaded, err := Decode(encode(t, g), g.Seed(), g.NumDocs(), g.NumClusters())
			if err != nil {
				t.Fatal(err)
			}
			if loaded.NumDocs() != g.NumDocs() || loaded.NumShards() != shards || loaded.Seed() != 42 {
				t.Fatalf("loaded group topology %d/%d/%d, want %d/%d/42",
					loaded.NumDocs(), loaded.NumShards(), loaded.Seed(), g.NumDocs(), shards)
			}
			extra := genDocs(t, forum.TechSupport, 152, 42)[150:]
			for _, doc := range extra {
				wantID := mr.Add(doc)
				if gotID := loaded.Add(doc); gotID != wantID {
					t.Fatalf("loaded add assigned id %d, want %d", gotID, wantID)
				}
			}
		})
	}
}

// TestReadDirNegativePaths: each way the shard files and the counts
// beside them can disagree is refused by Decode with an error that says
// where.
func TestReadDirNegativePaths(t *testing.T) {
	_, g := buildGroup(t, 80, 2)
	type input struct {
		files          [][]byte
		seed           uint64
		docs, clusters int
	}
	cases := []struct {
		name    string
		corrupt func(in *input)
		wantSub string
	}{
		{"zero shards", func(in *input) { in.files = nil }, "needs at least 1 shard, has 0"},
		{"negative docs", func(in *input) { in.docs = -1 }, "declares -1 documents"},
		{"missing shard file", func(in *input) { in.files[1] = nil }, "reading shard 1"},
		// One file more than the build had: the documents are counted twice.
		{"shard count mismatch", func(in *input) { in.files = append(in.files, in.files[1]) }, "the shards hold"},
		{"truncated shard file", func(in *input) { in.files[0] = in.files[0][:len(in.files[0])/2] }, "reading shard 0"},
		{"corrupt shard payload", func(in *input) {
			raw := append([]byte(nil), in.files[1]...)
			for i := 20; i < len(raw) && i < 200; i++ {
				raw[i] ^= 0xFF
			}
			in.files[1] = raw
		}, "reading shard 1"},
		{"cluster count mismatch", func(in *input) { in.clusters = 99 }, "the snapshot declares 99"},
		// A different seed routes the documents differently; the per-shard
		// doc-count cross-check must catch it.
		{"wrong routing seed", func(in *input) { in.seed = 7777 }, "wrong seed"},
		{"wrong doc count", func(in *input) { in.docs = 10 }, "the snapshot declares 10"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := input{encode(t, g), g.Seed(), g.NumDocs(), g.NumClusters()}
			tc.corrupt(&in)
			loaded, err := Decode(in.files, in.seed, in.docs, in.clusters)
			if err == nil {
				t.Fatalf("Decode succeeded on %s (loaded %d docs)", tc.name, loaded.NumDocs())
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// legacyMRSections is the compact matcher's section order.
var legacyMRSections = []string{"meta", "dict", "dseg", "udoc", "sgct", "cent", "cidx"}

// withLegacyConfig returns a shard file whose "meta" section also holds
// the MRConfig an older build wrote beside the name and the statistics,
// its knobs at the values this build serves.
func withLegacyConfig(t *testing.T, file []byte) []byte {
	t.Helper()
	f, err := secfile.Decode(file, match.CompactMRMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]secfile.Section, len(legacyMRSections))
	for i, tag := range legacyMRSections {
		if secs[i].Data, err = f.Section(tag); err != nil {
			t.Fatal(err)
		}
		secs[i].Tag = tag
	}
	var meta map[string]any
	if err := json.Unmarshal(secs[0].Data, &meta); err != nil {
		t.Fatal(err)
	}
	meta["config"] = map[string]any{
		"NFactor": 2, "ScoreThreshold": 0, "NormalizeLists": false,
		"ContentVectors": false, "ContentK": 8, "Eps": 0, "MinPts": 4, "SampleSize": 2000,
		"KeepNoise": false, "Grouper": 0, "KMeansK": 6, "FullVectors": false, "Seed": 7,
	}
	if secs[0].Data, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := secfile.Encode(&buf, match.CompactMRMagic, f.Version, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardDirLegacyCompactEquivalence: at 1, 2 and 4 shards, shard
// files whose meta carries an older build's MRConfig decode to a group
// with the same topology that ranks every probe as the current files do.
func TestShardDirLegacyCompactEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, g := buildGroup(t, 120, shards)
			files := encode(t, g)
			legacy := make([][]byte, len(files))
			for s, file := range files {
				if legacy[s] = withLegacyConfig(t, file); bytes.Equal(legacy[s], file) {
					t.Fatalf("shard %d: the legacy file is the current one", s)
				}
			}
			current, err := Decode(files, g.Seed(), g.NumDocs(), g.NumClusters())
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := Decode(legacy, g.Seed(), g.NumDocs(), g.NumClusters())
			if err != nil {
				t.Fatalf("legacy meta: %v", err)
			}
			if loaded.NumDocs() != g.NumDocs() || loaded.NumShards() != shards {
				t.Fatalf("legacy meta: %d docs in %d shards, want %d in %d", loaded.NumDocs(), loaded.NumShards(), g.NumDocs(), shards)
			}
			for doc := 0; doc < g.NumDocs(); doc += 7 {
				if got, want := loaded.Match(doc, 5), current.Match(doc, 5); !reflect.DeepEqual(got, want) {
					t.Fatalf("doc %d: legacy meta ranks %v, current files %v", doc, got, want)
				}
			}
		})
	}
}
