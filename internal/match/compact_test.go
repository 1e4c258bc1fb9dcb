package match

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/forum"
	"repro/internal/secfile"
)

// mrSectionOrder is the fixed table order appendCompactMR writes.
var mrSectionOrder = []string{"meta", "dict", "dseg", "udoc", "sgct", "cent", "cidx"}

func smallMatcher(t testing.TB) *MR {
	t.Helper()
	tc := buildCorpus(t, forum.TechSupport, 40, 61)
	return NewMR("IntentIntent-MR", tc.docs, MRConfig{Seed: 7})
}

func writeMR(t *testing.T, mr *MR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := mr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMRCompactByteIdentical pins the determinism property of the
// compact matcher layout: repeated writes of one matcher are identical,
// and write → read → re-write reproduces the byte string exactly.
func TestMRCompactByteIdentical(t *testing.T) {
	mr := smallMatcher(t)
	first := writeMR(t, mr)
	if again := writeMR(t, mr); !bytes.Equal(first, again) {
		t.Fatal("two writes of the same matcher differ")
	}
	loaded, err := ReadMR(first, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second := writeMR(t, loaded); !bytes.Equal(first, second) {
		t.Fatalf("re-written matcher differs (%d vs %d bytes)", len(first), len(second))
	}
}

// TestReadMRRejectsInvariantBreaks mutates a freshly built matcher into
// every cross-table inconsistency the query path depends on not having,
// writes it, and requires the load to fail with a descriptive error —
// the persistence layer's contract that a snapshot which would misrank
// or panic at query time never installs.
func TestReadMRRejectsInvariantBreaks(t *testing.T) {
	// pickSeg finds a document that actually has segments to corrupt and
	// returns it with the cluster of its first row.
	pickSeg := func(mr *MR) (doc, cluster int) {
		for d := 0; d < mr.segs.numDocs(); d++ {
			if rows := mr.segs.rows(d); rows.n > 0 {
				c, _ := rows.next(nil)
				return d, c
			}
		}
		t.Fatal("matcher has no segments")
		return 0, 0
	}
	cases := []struct {
		name   string
		mutate func(mr *MR)
		// edit, when set, corrupts the written file instead: for defects
		// the encoder cannot be talked into writing.
		edit    func(t *testing.T, mr *MR, file []byte) []byte
		wantSub string
	}{
		{
			name: "ownership table disagrees with segments",
			mutate: func(mr *MR) {
				d, c := pickSeg(mr)
				u, _ := mr.unitOf(c, d)
				mr.unitDoc[c][u] = int32((d + 1) % mr.segs.numDocs())
			},
			wantSub: "ownership table says",
		},
		{
			name: "ownership table wrong cluster count",
			mutate: func(mr *MR) {
				mr.unitDoc = append(mr.unitDoc, []int32{})
			},
			wantSub: "ownership table covers",
		},
		{
			name: "ownership table wrong unit count",
			mutate: func(mr *MR) {
				mr.unitDoc[0] = append(mr.unitDoc[0], 0)
			},
			wantSub: "ownership table has",
		},
		{
			// "dseg" opens with the document count and document 0's row
			// count, one byte each here; the next byte is its first row's
			// cluster.
			name: "segment cluster out of range",
			edit: func(t *testing.T, mr *MR, file []byte) []byte {
				return rebuildMRSections(t, file, func(secs []secfile.Section) []secfile.Section {
					dseg := append([]byte(nil), secs[2].Data...)
					if dseg[0] != byte(mr.segs.numDocs()) || dseg[1] == 0 {
						t.Fatalf("dseg opens % x: want %d documents and rows in the first", dseg[:2], mr.segs.numDocs())
					}
					dseg[2] = byte(len(mr.clusters))
					secs[2].Data = dseg
					return secs
				})
			},
			wantSub: "out of range",
		},
		{
			// Two file ids would intern to one dictionary id: rows would
			// name a term the cluster indices do not.
			name:    "dictionary entry repeated",
			edit:    editDict(func(names []string) { names[1] = names[0] }),
			wantSub: "not strictly ascending",
		},
		{
			name:    "dictionary entries swapped",
			edit:    editDict(func(names []string) { names[0], names[1] = names[1], names[0] }),
			wantSub: "not strictly ascending",
		},
		{
			name: "owner document out of range",
			mutate: func(mr *MR) {
				mr.unitDoc[0][0] = int32(mr.segs.numDocs())
			},
			wantSub: "owned by doc",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/compact", func(t *testing.T) {
			mr := smallMatcher(t)
			var file []byte
			if tc.edit != nil {
				file = tc.edit(t, mr, writeMR(t, mr))
			} else {
				tc.mutate(mr)
				file = writeMR(t, mr)
			}
			if _, err := ReadMR(file, nil); err == nil {
				t.Fatal("invariant-breaking snapshot loaded without error")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// editDict returns an edit that rewrites the file's "dict" section
// with f applied to its terms.
func editDict(f func(names []string)) func(t *testing.T, mr *MR, file []byte) []byte {
	return func(t *testing.T, _ *MR, file []byte) []byte {
		return rebuildMRSections(t, file, func(secs []secfile.Section) []secfile.Section {
			names, _, err := secfile.ParseStringTable(secs[1].Data)
			if err != nil || len(names) < 2 {
				t.Fatalf("dict section: %d terms, %v", len(names), err)
			}
			f(names)
			secs[1].Data = secfile.AppendStringTable(nil, names)
			return secs
		})
	}
}

// rebuildMRSections re-encodes a valid compact matcher file with an
// edit applied to its section list — the container-level corruption
// helper for defects the encoder cannot be talked into writing.
func rebuildMRSections(t *testing.T, valid []byte, edit func(secs []secfile.Section) []secfile.Section) []byte {
	t.Helper()
	f, err := secfile.Decode(valid, CompactMRMagic, compactMRVersion)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]secfile.Section, 0, len(mrSectionOrder))
	for _, tag := range mrSectionOrder {
		data, err := f.Section(tag)
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, secfile.Section{Tag: tag, Data: data})
	}
	var buf bytes.Buffer
	if _, err := secfile.Encode(&buf, CompactMRMagic, compactMRVersion, edit(secs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fileRow is one "dseg" row as the file holds it.
type fileRow struct {
	cluster, unit uint64
	ids           []uint64
}

// dsegRows parses a valid file's "dseg" section into its documents'
// rows, and encodeDseg writes them back.
func dsegRows(t *testing.T, valid []byte) [][]fileRow {
	t.Helper()
	f, err := secfile.Decode(valid, CompactMRMagic, compactMRVersion)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Section("dseg")
	if err != nil {
		t.Fatal(err)
	}
	next := func() uint64 {
		v, rest, err := secfile.Uvarint(b)
		if err != nil {
			t.Fatal(err)
		}
		b = rest
		return v
	}
	docs := make([][]fileRow, next())
	for d := range docs {
		docs[d] = make([]fileRow, next())
		for i := range docs[d] {
			r := fileRow{cluster: next(), unit: next()}
			r.ids = make([]uint64, next())
			for j := range r.ids {
				r.ids[j] = next()
			}
			docs[d][i] = r
		}
	}
	return docs
}

func encodeDseg(docs [][]fileRow) []byte {
	b := secfile.AppendUvarint(nil, uint64(len(docs)))
	for _, rows := range docs {
		b = secfile.AppendUvarint(b, uint64(len(rows)))
		for _, r := range rows {
			b = secfile.AppendUvarint(secfile.AppendUvarint(b, r.cluster), r.unit)
			b = secfile.AppendUvarint(b, uint64(len(r.ids)))
			for _, id := range r.ids {
				b = secfile.AppendUvarint(b, id)
			}
		}
	}
	return b
}

func TestReadMRCompactNegativePaths(t *testing.T) {
	replace := func(valid []byte, tag string, payload []byte) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			return rebuildMRSections(t, valid, func(secs []secfile.Section) []secfile.Section {
				for i := range secs {
					if secs[i].Tag == tag {
						secs[i].Data = payload
					}
				}
				return secs
			})
		}
	}
	valid := writeMR(t, smallMatcher(t))
	// editDseg rewrites the file's rows through edit.
	editDseg := func(edit func(docs [][]fileRow) [][]fileRow) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			return replace(valid, "dseg", encodeDseg(edit(dsegRows(t, valid))))(t)
		}
	}
	cases := []struct {
		name    string
		data    func(t *testing.T) []byte
		wantSub string
	}{
		{
			name: "segments out of cluster order",
			data: editDseg(func(docs [][]fileRow) [][]fileRow {
				for _, rows := range docs {
					if len(rows) >= 2 {
						rows[0].cluster, rows[1].cluster = rows[1].cluster, rows[0].cluster
						break
					}
				}
				return docs
			}),
			wantSub: "ascend in cluster",
		},
		{
			// Units are assigned in document order, so the last row of a
			// cluster holds its last unit: without it, that unit has no
			// segment.
			name: "unit without a segment",
			data: editDseg(func(docs [][]fileRow) [][]fileRow {
				c := docs[0][0].cluster
				for d := len(docs) - 1; d >= 0; d-- {
					for i, r := range docs[d] {
						if r.cluster == c {
							docs[d] = append(docs[d][:i], docs[d][i+1:]...)
							return docs
						}
					}
				}
				return docs
			}),
			wantSub: "has no segment",
		},
		{
			name:    "truncated container",
			data:    func(t *testing.T) []byte { return valid[:len(valid)-30] },
			wantSub: "truncated",
		},
		{
			name:    "trailing garbage",
			data:    func(t *testing.T) []byte { return append(append([]byte(nil), valid...), "junk"...) },
			wantSub: "trailing bytes",
		},
		{
			name: "future version",
			data: func(t *testing.T) []byte {
				data := append([]byte(nil), valid...)
				data[4], data[5] = 0xFF, 0xFF
				return data
			},
			wantSub: "unsupported RFCM version",
		},
		{
			name: "payload bit flip",
			data: func(t *testing.T) []byte {
				data := append([]byte(nil), valid...)
				data[len(data)-1] ^= 0x40
				return data
			},
			wantSub: "checksum mismatch",
		},
		{
			name:    "meta not JSON",
			data:    replace(valid, "meta", []byte("{truncated")),
			wantSub: "decoding meta",
		},
		{
			name: "missing section",
			data: func(t *testing.T) []byte {
				return rebuildMRSections(t, valid, func(secs []secfile.Section) []secfile.Section {
					out := secs[:0]
					for _, s := range secs {
						if s.Tag != "sgct" {
							out = append(out, s)
						}
					}
					return out
				})
			},
			wantSub: `missing section "sgct"`,
		},
		{
			// The after column is written from the segment table, so only a
			// hand-edited section can disagree with it: the last byte of
			// "sgct" is the last document's count.
			name: "after count disagrees with segments",
			data: func(t *testing.T) []byte {
				return rebuildMRSections(t, valid, func(secs []secfile.Section) []secfile.Section {
					for i := range secs {
						if secs[i].Tag == "sgct" {
							secs[i].Data = append([]byte(nil), secs[i].Data...)
							secs[i].Data[len(secs[i].Data)-1]++
						}
					}
					return secs
				})
			},
			wantSub: "refined segments but carries",
		},
		{
			name:    "dictionary trailing bytes",
			data:    replace(valid, "dict", append(secfile.AppendStringTable(nil, []string{"x"}), 0x01)),
			wantSub: "trailing bytes in term dictionary",
		},
		{
			// The count is checked against the bytes that follow before
			// anything is allocated for it.
			name:    "document count overruns the segment section",
			data:    replace(valid, "dseg", secfile.AppendUvarint(nil, 1<<40)),
			wantSub: "documents declared in 0 bytes",
		},
		{
			name:    "segment section truncated",
			data:    replace(valid, "dseg", []byte{3, 0, 0, 0x80}),
			wantSub: "segment count",
		},
		{
			name:    "cluster count overruns the index section",
			data:    replace(valid, "cidx", secfile.AppendUvarint(nil, 1<<40)),
			wantSub: "cluster indices declared in 0 bytes",
		},
		{
			name:    "cluster section truncated",
			data:    replace(valid, "cidx", secfile.AppendUvarint(secfile.AppendUvarint(nil, 1), 500)),
			wantSub: "index truncated",
		},
		{
			name: "centroid column short",
			data: replace(valid, "cent",
				secfile.AppendUvarint(secfile.AppendUvarint(nil, 2), 4)),
			wantSub: "centroid column",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadMR(tc.data(t), nil); err == nil {
				t.Fatal("corrupt matcher file loaded without error")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// parentMeta is the "meta" section an older build wrote for smallMatcher:
// its whole MRConfig, defaults applied, and the two noise counters
// BuildStats had.
const parentMeta = `{"name":"IntentIntent-MR","config":{"ContentVectors":false,"ContentK":8,"Eps":0,` +
	`"MinPts":4,"SampleSize":2000,"KeepNoise":false,"Grouper":0,"KMeansK":6,"FullVectors":false,"Seed":7},` +
	`"stats":{"Segmentation":1,"Vectorization":1,"Clustering":1,"Refinement":1,"Grouping":1,"Indexing":1,` +
	`"NumSegments":1,"NumClusters":6,"NoiseCount":0,"NoiseReassigned":0}}`

// TestReadMRLegacyAlg2Knobs: a meta an older build wrote — its MRConfig
// beside the name — loads when its knobs hold what this build serves,
// answering as the matcher that wrote it; Algorithm 2 knobs off n = 2k
// raw sums, and stages this build does not add posts by, are refused by
// name rather than served.
func TestReadMRLegacyAlg2Knobs(t *testing.T) {
	mr := smallMatcher(t)
	valid := writeMR(t, mr)
	for _, tc := range []struct{ old, new, refusal string }{
		{"", "", ""},
		{`"config":{`, `"config":{"NFactor":2,"ScoreThreshold":0,"NormalizeLists":false,`, ""},
		{`"config":{`, `"config":{"NFactor":3,`, "Algorithm 2 knobs"},
		{`"config":{`, `"config":{"ScoreThreshold":0.5,`, "Algorithm 2 knobs"},
		{`"config":{`, `"config":{"NormalizeLists":true,`, "Algorithm 2 knobs"},
		{`"ContentVectors":false`, `"ContentVectors":true`, "ContentVectors"},
		{`"FullVectors":false`, `"FullVectors":true`, "FullVectors"},
		{`"IntentIntent-MR"`, `"SentIntent-MR"`, "SentIntent-MR"},
	} {
		meta := strings.Replace(parentMeta, tc.old, tc.new, 1)
		loaded, err := ReadMR(rebuildMRSections(t, valid, func(secs []secfile.Section) []secfile.Section {
			secs[0].Data = []byte(meta)
			return secs
		}), nil)
		if tc.refusal == "" && (err != nil || !reflect.DeepEqual(loaded.Match(3, 5), mr.Match(3, 5))) {
			t.Errorf("%s: ReadMR = %v, or the loaded matcher answers otherwise than its writer", tc.new, err)
		} else if tc.refusal != "" && (err == nil || !strings.Contains(err.Error(), tc.refusal)) {
			t.Errorf("%s: ReadMR = %v, want a refusal naming %s", tc.new, err, tc.refusal)
		}
	}
}

// TestReadMRRefusesCentroidShape: Add assigns segments by the centroids,
// so a snapshot must carry one per cluster, each with Eq 5's dimension —
// once a 15-dim column loaded and the first Add panicked, and a surplus
// centroid drew segments into a cluster that does not exist. A build over
// no segments (clusters, no centroids) still loads and adds.
func TestReadMRRefusesCentroidShape(t *testing.T) {
	mr := smallMatcher(t)
	valid := writeMR(t, mr)
	dim, k := len(mr.centroids[0]), len(mr.centroids)
	cent := func(k, dim int) []byte {
		b := secfile.AppendUvarint(secfile.AppendUvarint(nil, uint64(k)), uint64(dim))
		return secfile.AppendFloat64s(b, make([]float64, k*dim))
	}
	for name, tc := range map[string]struct {
		data    []byte
		wantSub string
	}{
		"15-dim":                {cent(k, 15), "15-dim centroids"},
		"28-dim":                {cent(k, 28), "28-dim centroids"},
		"13-dim":                {cent(k, 13), "13-dim centroids"},
		"one centroid too many": {cent(k+1, dim), "centroids for"},
		"one centroid short":    {cent(k-1, dim), "centroids for"},
		"none over units":       {cent(0, 0), "0 centroids for"},
	} {
		data := rebuildMRSections(t, valid, func(secs []secfile.Section) []secfile.Section {
			secs[5].Data = tc.data
			return secs
		})
		if _, err := ReadMR(data, nil); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: ReadMR = %v, want an error mentioning %q", name, err, tc.wantSub)
		}
	}
	empty, err := ReadMR(writeMR(t, NewMR("empty", nil, MRConfig{})), nil)
	if err != nil {
		t.Fatalf("a build over no segments does not load: %v", err)
	}
	extra := buildCorpus(t, forum.TechSupport, 1, 62)
	if id := empty.Add(extra.docs[0]); id != 0 {
		t.Errorf("Add on the loaded empty matcher returned %d", id)
	}
}

// TestReadMRTrailingGarbageBothLayouts covers the reader contract at
// the file level: surplus bytes after a valid matcher fail the load,
// and so does a truncation.
func TestReadMRTrailingGarbageBothLayouts(t *testing.T) {
	valid := writeMR(t, smallMatcher(t))
	t.Run("compact/trailing", func(t *testing.T) {
		data := append(append([]byte(nil), valid...), "a second matcher, say"...)
		if _, err := ReadMR(data, nil); err == nil {
			t.Fatal("trailing bytes accepted")
		} else if !strings.Contains(err.Error(), "trailing bytes") {
			t.Fatalf("error %q does not mention trailing bytes", err)
		}
	})
	t.Run("compact/truncated", func(t *testing.T) {
		if _, err := ReadMR(valid[:len(valid)*2/3], nil); err == nil {
			t.Fatal("truncated stream accepted")
		}
	})
}
