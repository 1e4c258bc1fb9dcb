package cm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/textproc"
)

// collidingWords returns n distinct words that share one memo slot under
// this process's hash seed.
func collidingWords(n int) []string {
	out := []string{"Collide0ing"}
	slot := wordSlot(out[0])
	for i := 1; len(out) < n; i++ {
		if w := fmt.Sprintf("Collide%ding", i); wordSlot(w) == slot {
			out = append(out, w)
		}
	}
	return out
}

// TestWordMemoConcurrent hammers the memo from every processor with words
// that evict each other from one slot (and a few that keep theirs): every
// answer must still be the uncached record. Run under -race this is also
// the proof that slots are only ever read and written whole.
func TestWordMemoConcurrent(t *testing.T) {
	words := append(collidingWords(8), "printers", "Relational", "installing", "the", "happy", "didn't", ",")
	want := make([]word, len(words))
	for i, w := range words {
		want[i] = newWord(w)
	}
	var wg sync.WaitGroup
	for g := 0; g < max(4, runtime.GOMAXPROCS(0)); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				k := (i*7 + g) % len(words)
				if got := lookup(words[k]); got != want[k] {
					t.Errorf("lookup(%q) = %+v, the uncached record is %+v", words[k], got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// within reports whether s's bytes lie inside outer's.
func within(s, outer string) bool {
	if s == "" || outer == "" {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(outer)))
	return p >= lo && p < lo+uintptr(len(outer))
}

// TestWordMemoOwnsItsBytes: a record outlives the call that made it, so
// it must not point into the caller's text (on /add, a request body it
// would keep alive), and it must not grow with the input: neither its text
// nor its stem (lower-casing can lengthen a word) may pass the cap.
func TestWordMemoOwnsItsBytes(t *testing.T) {
	body := strings.Clone("Reinstalling printers relational happy caresses unchanged sky DIDN'T " +
		strings.Repeat("averyveryverylongtoken", 4) + "ing " +
		strings.Repeat("Ⱥ", 16)) // 32 bytes, and 48 lower-cased
	for start, end := textproc.NextToken(body, 0); start < end; start, end = textproc.NextToken(body, end) {
		tok := body[start:end]
		got := lookup(tok)
		if got != newWord(tok) {
			t.Fatalf("lookup(%q) = %+v, the uncached record is %+v", tok, got, newWord(tok))
		}
		if len(tok) == 1 || len(tok) > wordMaxLen || len(got.stem) > wordMaxLen {
			continue
		}
		e := wordMemo[wordSlot(tok)].Load()
		if e == nil || *e != got {
			t.Fatalf("lookup(%q) left record %+v in its slot", tok, e)
		}
		if within(e.text, body) || within(e.stem, body) {
			t.Errorf("the record of %q points into the caller's text", tok)
		}
		if again := lookup(tok); within(again.stem, body) {
			t.Errorf("lookup(%q) answered from the memo with the caller's own bytes", tok)
		}
	}
	for i := range wordMemo {
		if e := wordMemo[i].Load(); e != nil && (len(e.text) > wordMaxLen || len(e.stem) > wordMaxLen) {
			t.Errorf("slot %d holds %q (stem %q), longer than wordMaxLen", i, e.text, e.stem)
		}
	}
}
