package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/forum"
	"repro/internal/match"
	"repro/internal/secfile"
)

// snapshotContentSHA hashes everything a pipeline snapshot says about
// the collection: the matcher file's dictionary, segment, ownership,
// accounting, centroid and cluster-index sections. The two JSON headers
// are left out — they carry the build's wall-clock timings.
func snapshotContentSHA(t *testing.T, p *Pipeline) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := secfile.Decode(buf.Bytes(), pipelineMagic, pipelineVersion)
	if err != nil {
		t.Fatal(err)
	}
	mtch, err := f.Section("mtch")
	if err != nil {
		t.Fatal(err)
	}
	mf, err := secfile.Decode(mtch, match.CompactMRMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, tag := range []string{"dict", "dseg", "udoc", "sgct", "cent", "cidx"} {
		sec, err := mf.Section(tag)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", tag, len(sec))
		h.Write(sec)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// latePost is the i-th post added after the golden corpus was built or
// loaded: it brings terms the dictionary has not met, which sort among
// the ones it has.
func latePost(i int) string {
	return fmt.Sprintf("aaa zebra middle %d raid disk", i) + " My raid array fails. Does anyone know how to fix zzzterm? I tried mmmterm rebooting."
}

// TestSnapshotBytesPinned makes "the snapshot bytes did not move" a
// test: the content hash of the 200-post golden corpus, and of the same
// pipeline after five adds, as recorded on the commit before the posting
// layout changed (PR 22's parent, 75bcb79). The adds go through the
// incremental path, whose dictionary ids are in arrival order; the file
// must not be able to tell. A pipeline that is loaded before it takes
// the adds must hash the same, and write → load → write must be exact.
func TestSnapshotBytesPinned(t *testing.T) {
	const (
		goldenSHA    = "0c1b022f6f028d90a79966ad8134322b598b74db5f444d38332d464949552165"
		afterAddsSHA = "24a94436025576cb1a7e442c30dd9dd98f09112adcf20b1cc14c66a0d58bcc6e"
	)
	texts, _ := corpusTexts(t, forum.TechSupport, goldenPosts, goldenSeed)
	p, err := Build(texts, Config{Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotContentSHA(t, p); got != goldenSHA {
		t.Fatalf("golden snapshot content hashes to %s, pinned %s", got, goldenSHA)
	}
	var first bytes.Buffer
	if _, err := p.WriteTo(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadPipeline(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if _, err := loaded.WriteTo(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("write → load → write is not byte-identical")
	}
	for i := 0; i < 5; i++ {
		for _, q := range []*Pipeline{p, loaded} {
			if _, err := q.Add(latePost(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, q := range map[string]*Pipeline{"built": p, "loaded": loaded} {
		if got := snapshotContentSHA(t, q); got != afterAddsSHA {
			t.Errorf("%s pipeline after the adds hashes to %s, pinned %s", name, got, afterAddsSHA)
		}
	}
}

// TestLoadedHeapBudget is the heap budget of a restored pipeline, with
// no clock in it: 2 000 generated posts are built, written and read
// back, and the live heap the read leaves behind (after two collections,
// as the benchmark's heap_mb takes it) may not exceed a fixed multiple
// of the snapshot's bytes. The multiples are the values measured with
// the segment table as one byte stream — per document a row count, per
// row a cluster, a token count and the tokens as uvarint dictionary ids,
// no unit — and posting lists split into a run of TF = 1 unit ids and a
// TF > 1 remainder and nothing else kept per list (1.67× and 1.99×;
// 1.85× and 2.12× with the cluster, unit and row-end columns as int32s,
// 2.28× and 2.52× with an int32 a token too, 2.94× and 3.17× with 8-byte
// postings in one run, 7.66× and 7.98× before term ids and flat
// columns) plus a tenth. The Eq 7/8 columns a first probe
// builds (16 bytes a unit, see index.unitNorms) are not in the reading:
// nothing has probed. What four shards pay on top: a list header and a
// slot for every (shard, cluster, term), and a pooled document-frequency
// column per cluster.
func TestLoadedHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is on the heap")
	}
	texts, _ := corpusTexts(t, forum.TechSupport, 2000, 42)
	for _, tc := range []struct {
		shards   int
		multiple float64
	}{{0, 1.77}, {4, 2.09}} {
		t.Run(fmt.Sprintf("shards-%d", tc.shards), func(t *testing.T) {
			built, err := Build(texts, Config{Seed: 42, Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			dir := t.TempDir()
			size := 0
			if tc.shards == 0 {
				if _, err := built.WriteTo(&snap); err != nil {
					t.Fatal(err)
				}
				size = snap.Len()
			} else {
				if err := built.WriteShardDir(dir); err != nil {
					t.Fatal(err)
				}
				files, err := filepath.Glob(filepath.Join(dir, "*"))
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range files {
					info, err := os.Stat(f)
					if err != nil {
						t.Fatal(err)
					}
					size += int(info.Size())
				}
			}
			built = nil
			before := liveHeap()
			var loaded *Pipeline
			if tc.shards == 0 {
				loaded, err = ReadPipeline(bytes.NewReader(snap.Bytes()))
			} else {
				loaded, err = ReadShardDir(dir)
			}
			if err != nil {
				t.Fatal(err)
			}
			held := liveHeap() - before
			runtime.KeepAlive(loaded)
			runtime.KeepAlive(&snap)
			ratio := float64(held) / float64(size)
			t.Logf("snapshot %d bytes, restored pipeline holds %d: %.2f×", size, held, ratio)
			if ratio > tc.multiple {
				t.Errorf("restored pipeline holds %.2f× its snapshot's bytes, budget %.2f×", ratio, tc.multiple)
			}
		})
	}
}

// TestBuiltHeapBudget holds a built pipeline to what its snapshot
// restores: Build prepares every post (sentences, annotations, terms)
// to segment and index it, and serving reads none of that afterwards,
// so a built pipeline may hold at most a tenth more live heap than the
// same pipeline read back from its snapshot (about 22× when Build kept
// the prepared posts). And /add keeps only the rows and postings of the
// post it adds: 700 adds into a restored 2 000-post pipeline may retain
// at most 2 KB each (about 11.5 KB when the prepared post was kept).
func TestBuiltHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is on the heap")
	}
	const base, adds, perAdd = 2000, 700, 2048
	texts, _ := corpusTexts(t, forum.TechSupport, base+adds, 42)
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			before := liveHeap()
			built, err := Build(texts[:base], Config{Seed: 42, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			heldBuilt := liveHeap() - before
			var snap bytes.Buffer
			if _, err := built.WriteTo(&snap); err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(built)
			built = nil
			before = liveHeap()
			loaded, err := ReadPipeline(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			heldLoaded := liveHeap() - before
			ratio := float64(heldBuilt) / float64(heldLoaded)
			t.Logf("built pipeline holds %d bytes, restored %d: %.3f×", heldBuilt, heldLoaded, ratio)
			if ratio > 1.1 {
				t.Errorf("built pipeline holds %.3f× its restored heap, budget 1.1×", ratio)
			}

			before = liveHeap()
			for _, text := range texts[base:] {
				if _, err := loaded.Add(text); err != nil {
					t.Fatal(err)
				}
			}
			each := float64(liveHeap()-before) / adds
			runtime.KeepAlive(loaded)
			runtime.KeepAlive(&snap)
			runtime.KeepAlive(texts) // or the built posts' texts go and the adds read low
			t.Logf("%d adds retain %.0f bytes each", adds, each)
			if each > perAdd {
				t.Errorf("an add retains %.0f bytes, budget %d", each, perAdd)
			}
		})
	}
}

// liveHeap is the heap in use once two forced collections have finished.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// tailTexts is n TechSupport posts with a long tail of the benchmark's
// kind: before each sentence's final punctuation, per "zq<id>x" tokens,
// every one a fresh id but each fourth, which repeats one of the first
// hundred — so the dictionary grows by about 3/4·per terms a sentence.
func tailTexts(n, per int) []string {
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: n, Seed: 42})
	texts := make([]string, n)
	next := 0
	for i, p := range posts {
		var b strings.Builder
		for j := 0; j < len(p.Text); j++ {
			c := p.Text[j]
			if (c == '.' || c == '?' || c == '!') && (j+1 == len(p.Text) || p.Text[j+1] == ' ') {
				for k := 0; k < per; k++ {
					id := next
					if k%4 == 3 {
						id = (next * 7) % 100
					} else {
						next++
					}
					fmt.Fprintf(&b, " zq%dx", id)
				}
			}
			b.WriteByte(c)
		}
		texts[i] = b.String()
	}
	return texts
}

// snapshotTerms counts the distinct terms of a snapshot's matcher
// dictionaries.
func snapshotTerms(t *testing.T, snap []byte) int {
	t.Helper()
	_, files, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	terms := map[string]bool{}
	for _, file := range files {
		f, err := secfile.Decode(file, match.CompactMRMagic, 1)
		if err != nil {
			t.Fatal(err)
		}
		sec, err := f.Section("dict")
		if err != nil {
			t.Fatal(err)
		}
		names, _, err := secfile.ParseStringTable(sec)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			terms[name] = true
		}
	}
	return len(terms)
}

// TestWideDictionaryRoundTrip holds the segment table's uvarint ids to
// the file past two-byte widths: a collection whose dictionary passes
// 2¹⁴ terms, so ids of one, two and three bytes sit side by side, takes
// adds (new terms, ids in arrival order), is written, read back and
// written again byte-identically; then the built and the loaded
// pipeline take the same further adds and still write the same bytes,
// which read back and write again byte-identically.
func TestWideDictionaryRoundTrip(t *testing.T) {
	texts := tailTexts(320, 24)
	base, adds := texts[:300], texts[300:]
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			p, err := Build(base, Config{Seed: 42, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			write := func(p *Pipeline) []byte {
				var buf bytes.Buffer
				if _, err := p.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			for _, text := range adds[:10] {
				if _, err := p.Add(text); err != nil {
					t.Fatal(err)
				}
			}
			first := write(p)
			if n := snapshotTerms(t, first); n <= 1<<14 {
				t.Fatalf("dictionary holds %d terms, want more than %d", n, 1<<14)
			}
			loaded, err := ReadPipeline(bytes.NewReader(first))
			if err != nil {
				t.Fatal(err)
			}
			if second := write(loaded); !bytes.Equal(first, second) {
				t.Fatal("write → load → write is not byte-identical")
			}
			for _, text := range adds[10:] {
				for _, q := range []*Pipeline{p, loaded} {
					if _, err := q.Add(text); err != nil {
						t.Fatal(err)
					}
				}
			}
			last := write(loaded)
			if !bytes.Equal(write(p), last) {
				t.Fatal("built and loaded pipelines write different bytes after the same adds")
			}
			reloaded, err := ReadPipeline(bytes.NewReader(last))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(write(reloaded), last) {
				t.Fatal("adds into a loaded pipeline: write → load → write is not byte-identical")
			}
		})
	}
}
