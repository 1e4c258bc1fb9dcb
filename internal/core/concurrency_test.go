package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/forum"
	"repro/internal/match"
)

// Run these under -race: they exercise the documented serving contract —
// Related, Add, Stats, and HasDoc interleaving freely on one Pipeline.

func TestPipelineConcurrentAddAndRelated(t *testing.T) {
	const basePosts, extraPosts, readers = 60, 16, 4
	t.Run(IntentIntentMR.String(), func(t *testing.T) {
		posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: basePosts + extraPosts, Seed: 81})
		texts := make([]string, len(posts))
		for i, p := range posts {
			texts[i] = p.Text
		}
		p, err := Build(texts[:basePosts], Config{Seed: 81})
		if err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var rg sync.WaitGroup
		for r := 0; r < readers; r++ {
			rg.Add(1)
			go func(r int) {
				defer rg.Done()
				for q := r; ; q = (q + 7) % basePosts {
					select {
					case <-stop:
						return
					default:
					}
					p.Related(q, 5)
					p.Stats()
					p.HasDoc(q)
				}
			}(r)
		}
		var ag sync.WaitGroup
		for w := 0; w < 2; w++ {
			ag.Add(1)
			go func(w int) {
				defer ag.Done()
				for i := w; i < extraPosts; i += 2 {
					if _, err := p.Add(texts[basePosts+i]); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		ag.Wait()
		close(stop)
		rg.Wait()

		if got := p.Stats().NumDocs; got != basePosts+extraPosts {
			t.Fatalf("Stats().NumDocs = %d, want %d", got, basePosts+extraPosts)
		}
		// HasDoc and the matcher agree on every id, including added ones.
		for id := 0; id < basePosts+extraPosts; id++ {
			if !p.HasDoc(id) {
				t.Fatalf("HasDoc(%d) = false after concurrent adds", id)
			}
		}
		if p.HasDoc(basePosts + extraPosts) {
			t.Fatal("HasDoc past the end is true")
		}
	})
}

func TestPipelineStatsConsistentAfterConcurrentAdds(t *testing.T) {
	posts := forum.Generate(forum.Config{Domain: forum.Travel, NumPosts: 50, Seed: 82})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	p, err := Build(texts[:30], Config{Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	segsBefore := p.Stats().NumSegments

	var wg sync.WaitGroup
	ids := make([]int, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := p.Add(texts[30+i])
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()

	st := p.Stats()
	if st.NumDocs != 50 {
		t.Errorf("NumDocs = %d, want 50", st.NumDocs)
	}
	if st.NumSegments < segsBefore {
		t.Errorf("NumSegments shrank: %d -> %d", segsBefore, st.NumSegments)
	}
	// Ids are dense and unique, and each one is the post added under it:
	// a second pipeline that adds the same texts one by one in assigned-id
	// order answers every Related exactly as the concurrent one does.
	byID := make([]string, 20)
	for i, id := range ids {
		if id < 30 || id >= 50 || byID[id-30] != "" {
			t.Fatalf("bad/duplicate id %d (all: %v)", id, ids)
		}
		byID[id-30] = texts[30+i]
	}
	replay, err := Build(texts[:30], Config{Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range byID {
		if id, err := replay.Add(text); err != nil || id != 30+i {
			t.Fatalf("replay Add #%d = %d, %v", i, id, err)
		}
	}
	for q := 0; q < 50; q++ {
		if got, want := p.Related(q, 5), replay.Related(q, 5); !reflect.DeepEqual(got, want) {
			t.Errorf("Related(%d) = %v, the id-order replay answers %v", q, got, want)
		}
	}
}

// TestSegmentCountsSnapshotIsolation is the regression test for the
// shared-slice audit: SegmentCounts used to hand out aliases of the
// matcher's live per-document count slices, so a caller could observe
// (or, by mutating, corrupt) state that concurrent Adds were appending
// to. The contract now is snapshot semantics: the returned slices are
// copies taken under the matcher's read lock, safe to retain and even
// mutate while the pipeline keeps growing.
func TestSegmentCountsSnapshotIsolation(t *testing.T) {
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 70, Seed: 85})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	const base = 40
	p, err := Build(texts[:base], Config{Seed: 85})
	if err != nil {
		t.Fatal(err)
	}

	// Mutating a returned snapshot must not leak into the pipeline.
	before, after := p.SegmentCounts()
	if len(before) != base || len(after) != base {
		t.Fatalf("snapshot sizes %d/%d, want %d", len(before), len(after), base)
	}
	wantB := append([]int(nil), before...)
	wantA := append([]int(nil), after...)
	for i := range before {
		before[i] = -1000
		after[i] = -1000
	}
	b2, a2 := p.SegmentCounts()
	for i := range b2 {
		if b2[i] != wantB[i] || a2[i] != wantA[i] {
			t.Fatalf("snapshot aliased live state: mutation visible at %d (%d/%d)", i, b2[i], a2[i])
		}
	}

	// Snapshots taken while Adds land stay internally consistent: run
	// under -race, every element positive, length never exceeding the
	// number of committed documents at observation time.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				b, a := p.SegmentCounts()
				if len(b) != len(a) {
					t.Errorf("torn snapshot: len(before)=%d len(after)=%d", len(b), len(a))
					return
				}
				if len(b) < base || len(b) > len(texts) {
					t.Errorf("snapshot length %d outside [%d,%d]", len(b), base, len(texts))
					return
				}
				for i := range b {
					if b[i] <= 0 || a[i] <= 0 {
						t.Errorf("non-positive segment count at %d: %d/%d", i, b[i], a[i])
						return
					}
				}
				// HasDoc must admit every id the snapshot covers.
				if !p.HasDoc(len(b) - 1) {
					t.Errorf("HasDoc(%d) false while snapshot has %d entries", len(b)-1, len(b))
					return
				}
			}
		}()
	}
	for i := base; i < len(texts); i++ {
		if _, err := p.Add(texts[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()

	if b, _ := p.SegmentCounts(); len(b) != len(texts) {
		t.Fatalf("final snapshot has %d entries, want %d", len(b), len(texts))
	}
}

func ExamplePipeline_concurrent() {
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: 40, Seed: 84})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	p, _ := Build(texts[:30], Config{Seed: 84})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: stream in new posts
		defer wg.Done()
		for _, t := range texts[30:] {
			p.Add(t)
		}
	}()
	go func() { // reader: serve queries throughout
		defer wg.Done()
		for q := 0; q < 30; q++ {
			p.Related(q, 5)
		}
	}()
	wg.Wait()
	fmt.Println(p.Stats().NumDocs)
	// Output: 40
}

// TestWriteToDuringAdd saves the pipeline while posts are being added.
// Every snapshot must reload and describe one collection: the header's
// document count is the matcher's, so the last id the header admits is
// one the restored server answers for. (A header read outside the lock
// the adds commit under runs a document behind the matcher written
// after it — and is a data race, which -race reports here.)
func TestWriteToDuringAdd(t *testing.T) {
	const basePosts, extraPosts = 100, 40
	texts, _ := corpusTexts(t, forum.TechSupport, basePosts+extraPosts, 83)
	p, err := Build(texts[:basePosts], Config{Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	added := make(chan struct{})
	go func() {
		defer close(added)
		for _, text := range texts[basePosts:] {
			if _, err := p.Add(text); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var snaps []*bytes.Buffer
	for done := false; !done; {
		select {
		case <-added:
			done = true // one more save, of the final collection
		default:
		}
		buf := new(bytes.Buffer)
		if _, err := p.WriteTo(buf); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf)
	}
	for i, buf := range snaps {
		loaded, err := ReadPipeline(buf)
		if err != nil {
			t.Fatalf("snapshot %d of %d does not reload: %v", i, len(snaps), err)
		}
		n := loaded.Stats().NumDocs
		if held := loaded.matcher.(*match.MR).NumDocs(); n != held {
			t.Fatalf("snapshot %d: header says %d docs, matcher holds %d", i, n, held)
		}
		if n < basePosts || !loaded.HasDoc(n-1) {
			t.Fatalf("snapshot %d: %d docs, HasDoc(%d) = %v", i, n, n-1, loaded.HasDoc(n-1))
		}
	}
}
