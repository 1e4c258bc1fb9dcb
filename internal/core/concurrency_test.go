package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/forum"
)

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
				// hasDoc must admit every id the snapshot covers.
				if !p.hasDoc(len(b) - 1) {
					t.Errorf("hasDoc(%d) false while snapshot has %d entries", len(b)-1, len(b))
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
