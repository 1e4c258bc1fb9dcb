package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
// posting lists split into a run of TF = 1 unit ids and a TF > 1
// remainder and nothing else kept per list (2.28× and 2.52×; 2.94× and
// 3.17× with 8-byte postings in one run, 7.66× and 7.98× before term ids
// and flat columns) plus a tenth. The Eq 7/8 columns a first probe
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
	}{{0, 2.38}, {4, 2.62}} {
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

// liveHeap is the heap in use once two forced collections have finished.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
