package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/match"
	"repro/internal/secfile"
)

// FuzzReadPipeline drives arbitrary bytes through the snapshot loader,
// the trust boundary of `serve -load`: container, header, embedded
// matchers, embedded cluster indices. Whatever the input, the loader
// returns an error or a pipeline that serves — Related answers without
// panicking for every id the header admits, and a post can be added and
// answered for. A sharded input that loads also loads through the fleet
// host's decoder (ReadPart) owning shard 0. A matcher whose centroids
// had 15 dimensions once loaded and panicked on its first Add; it is a
// seed, and so is a matcher whose units are out of document order.
func FuzzReadPipeline(f *testing.F) {
	_, valid := smallSnapshot(f)
	_, sharded := smallShardedSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])
	f.Add(withHead(f, valid, func(h *pipelineHead) { h.Stats.NumDocs++ }))
	f.Add([]byte(pipelineMagic))
	f.Add([]byte{})
	f.Add(withMatcherSections(f, valid, map[string][]byte{"cent": secfile.AppendFloat64s(
		secfile.AppendUvarint(secfile.AppendUvarint(nil, 6), 15), make([]float64, 6*15))}))
	f.Add(sharded)
	f.Add(sharded[:len(sharded)*2/3])
	f.Add(unitsOutOfOrder(f, valid))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPipeline(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p.Shards() > 0 {
			path := filepath.Join(t.TempDir(), "snap")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadPart(path, []int{0}); err != nil {
				t.Fatalf("loads whole but not as shard 0: %v", err)
			}
		}
		n := p.Stats().NumDocs
		if n > 0 && !p.HasDoc(n-1) {
			t.Fatalf("loaded %d documents but HasDoc(%d) is false", n, n-1)
		}
		for id := 0; id < n; id++ {
			for _, r := range p.Related(id, 3) {
				if r.DocID < 0 || r.DocID >= n || r.DocID == id {
					t.Fatalf("Related(%d) returned doc %d of %d", id, r.DocID, n)
				}
			}
		}
		id, err := p.Add("My raid array fails after the update. Does anyone know how to fix it? I tried rebooting twice.")
		if err != nil || id != n {
			t.Fatalf("Add = %d, %v; want id %d", id, err, n)
		}
		for _, r := range p.Related(id, 3) {
			if r.DocID < 0 || r.DocID >= n || r.DocID == id {
				t.Fatalf("Related(%d) of the added post returned doc %d of %d", id, r.DocID, n+1)
			}
		}
	})
}

// withMatcherSections re-encodes a valid snapshot with sections of its
// matcher replaced, every checksum intact, so only the matcher decoder's
// own checks can object.
func withMatcherSections(t testing.TB, valid []byte, edits map[string][]byte) []byte {
	t.Helper()
	head, mtch := snapshotSections(t, valid)
	mf, err := secfile.Decode(mtch, match.CompactMRMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	var secs []secfile.Section
	for _, name := range []string{"meta", "dict", "dseg", "udoc", "sgct", "cent", "cidx"} {
		sec, err := mf.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		if data, ok := edits[name]; ok {
			sec = data
		}
		secs = append(secs, secfile.Section{Tag: name, Data: sec})
	}
	var buf bytes.Buffer
	if _, err := secfile.Encode(&buf, match.CompactMRMagic, 1, secs); err != nil {
		t.Fatal(err)
	}
	return encodeSections(t, secfile.Section{Tag: "head", Data: head}, secfile.Section{Tag: "mtch", Data: buf.Bytes()})
}

// unitsOutOfOrder crafts, from a valid unsharded snapshot, one whose
// units are out of document order and that is otherwise consistent:
// the first cluster to hold two documents' rows has their unit ids
// swapped in "dseg" and their owners swapped in "udoc".
func unitsOutOfOrder(t testing.TB, valid []byte) []byte {
	t.Helper()
	_, mtch := snapshotSections(t, valid)
	mf, err := secfile.Decode(mtch, match.CompactMRMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both sections are uvarints and nothing else.
	values := func(tag string) []uint64 {
		b, err := mf.Section(tag)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for len(b) > 0 {
			v, rest, err := secfile.Uvarint(b)
			if err != nil {
				t.Fatal(err)
			}
			out, b = append(out, v), rest
		}
		return out
	}
	encode := func(vs []uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = secfile.AppendUvarint(b, v)
		}
		return b
	}
	// dseg: the document count, then per document its row count and per
	// row its cluster, unit, token count and tokens.
	seg := values("dseg")
	firstUnit := map[uint64]int{} // cluster → where its first row's unit is
	cluster, at := uint64(0), []int(nil)
	for d, i := 0, 1; d < int(seg[0]) && at == nil; d++ {
		rows := int(seg[i])
		i++
		for range rows {
			c, unit := seg[i], i+1
			i += 3 + int(seg[i+2])
			if j, ok := firstUnit[c]; ok && at == nil {
				cluster, at = c, []int{j, unit}
			} else if !ok {
				firstUnit[c] = unit
			}
		}
	}
	if at == nil {
		t.Fatal("no cluster holds two documents")
	}
	u0, u1 := seg[at[0]], seg[at[1]]
	seg[at[0]], seg[at[1]] = u1, u0
	// udoc: the cluster count, then per cluster its unit count and owners.
	own := values("udoc")
	j := 1
	for range cluster {
		j += 1 + int(own[j])
	}
	owners := own[j+1:]
	owners[u0], owners[u1] = owners[u1], owners[u0]
	return withMatcherSections(t, valid, map[string][]byte{"dseg": encode(seg), "udoc": encode(own)})
}
