package index

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// strings returns the view's terms, id by id.
func (v TermView) strings() []string {
	out := make([]string, v.Len())
	for id := range out {
		out[id] = v.Term(int32(id))
	}
	return out
}

// TestTermViewOutlivesGrowth takes views while another goroutine interns
// past a growth of the byte, end and probe columns: every view, the
// first included, must still read every term it had, and Lookup must
// find them all. Under -race it shows that a view is read without the
// lock while the dictionary appends.
func TestTermViewOutlivesGrowth(t *testing.T) {
	const total = 4000
	name := func(id int) string { return "term" + strconv.Itoa(id) }
	d := NewDict()
	d.AppendIDs(nil, []string{name(0)})
	first := d.Terms()
	d.mu.RLock()
	probes := len(d.probe)
	d.mu.RUnlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 1; lo < total; lo += 25 {
			var batch []string
			for id := lo; id < min(lo+25, total); id++ {
				batch = append(batch, name(id))
			}
			d.AppendIDs(nil, batch)
		}
	}()
	check := func(v TermView) {
		t.Helper()
		for id := range v.Len() {
			if got := string(v.Bytes(int32(id))); got != name(id) {
				t.Fatalf("a view of %d terms reads id %d as %q, want %q", v.Len(), id, got, name(id))
			}
		}
	}
	views := []TermView{first}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v := d.Terms()
		check(v)
		if id := v.Len() - 1; d.Lookup(name(id)) != int32(id) {
			t.Fatalf("Lookup(%q) = %d, want %d", name(id), d.Lookup(name(id)), id)
		}
		if len(views) < 64 {
			views = append(views, v)
		}
	}
	for _, v := range views {
		check(v)
	}
	last := d.Terms()
	if last.Len() != total {
		t.Fatalf("dictionary holds %d terms, want %d", last.Len(), total)
	}
	if cap(last.bytes) == cap(first.bytes) || cap(last.ends) == cap(first.ends) || len(d.probe) == probes {
		t.Fatal("the columns never grew: the test shows nothing")
	}
}

// TestDictHeapBudget holds a dictionary interned whole, as a snapshot's
// table is on load, to its term bytes plus 12 bytes a term: 4 for the
// end offset and at most 8 for the probe column, which is then more
// than half full. The vocabulary is the benchmark corpus's size, 25 551
// terms of 3 to 12 letters, where the column is 78 % full: 5.1 bytes a
// term, 9.5 with the end column as allocated. A map[string]int32 beside
// a []string took about 53.
func TestDictHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is on the heap")
	}
	rng := rand.New(rand.NewSource(45))
	seen := map[string]bool{}
	var vocab []string
	size := 0
	for len(vocab) < 25551 {
		b := make([]byte, 3+rng.Intn(10))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		if s := string(b); !seen[s] {
			seen[s], vocab, size = true, append(vocab, s), size+len(s)
		}
	}
	seen = nil
	before := liveHeap()
	d := NewDict()
	d.AppendIDs(make([]int32, 0, len(vocab)), vocab)
	held := liveHeap() - before
	runtime.KeepAlive(d)
	runtime.KeepAlive(vocab)
	budget := size + 12*len(vocab)
	t.Logf("%d terms of %d bytes: the dictionary holds %d bytes (%.1f a term beyond its bytes), budget %d",
		len(vocab), size, held, float64(held-size)/float64(len(vocab)), budget)
	if held > budget {
		t.Errorf("dictionary holds %d bytes, budget %d", held, budget)
	}
}

// liveHeap is the live heap once two forced collections have finished.
func liveHeap() int {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}
