package index

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// FuzzIndexLoad drives arbitrary bytes through the full snapshot
// loader — container decode, section decode, the validateSnapshot
// gauntlet. Whatever the input: a descriptive error or a queryable
// index, never a panic. Any input that loads must canonicalize: its
// compact re-encoding loads back and re-encodes to the identical bytes.
func FuzzIndexLoad(f *testing.F) {
	ix := New()
	ix.Add([]string{"raid", "disk", "raid"})
	ix.Add([]string{"hotel", "pool"})
	var compact bytes.Buffer
	if _, err := ix.WriteTo(&compact); err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if _, err := New().WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.Bytes())
	f.Add(compact.Bytes()[:compact.Len()*2/3])
	f.Add(empty.Bytes())
	f.Add([]byte(CompactIndexMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded := New()
		if err := loaded.Load(data); err != nil {
			return
		}
		var first bytes.Buffer
		if _, err := loaded.WriteTo(&first); err != nil {
			t.Fatalf("re-encoding a loaded snapshot: %v", err)
		}
		again := New()
		if err := again.Load(first.Bytes()); err != nil {
			t.Fatalf("canonical re-encoding does not load: %v", err)
		}
		var second bytes.Buffer
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("canonical form not a fixed point: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}

// FuzzValidateSnapshot fuzzes validate's decision surface directly, on
// a one-list, one-unit column set: arbitrary posting and statistics
// values, including ones no compact file can spell (a negative unit
// id), must be rejected unless every invariant actually holds.
func FuzzValidateSnapshot(f *testing.F) {
	f.Add("raid", int32(0), int32(2), 1.6931471805599454, int32(1), int64(1))
	f.Add("x", int32(-5), int32(0), 0.0, int32(3), int64(9))
	f.Fuzz(func(t *testing.T, term string, unit, tf int32, denom float64, unique int32, total int64) {
		snap := columns{
			ends:        []int32{1},
			posts:       []Posting{{Unit: unit, TF: tf}},
			denoms:      []float64{denom},
			uniques:     []int32{unique},
			totalUnique: total,
		}
		if snap.validate([]string{term}) != nil {
			return
		}
		// Accepted: the invariants must actually hold — including the
		// denominator, where a NaN must not slip through the tolerance check.
		if unit != 0 || tf < 1 || unique != 1 || total != 1 {
			t.Fatalf("invalid snapshot accepted: unit=%d tf=%d unique=%d total=%d", unit, tf, unique, total)
		}
		want := math.Log(float64(tf)) + 1
		if !(math.Abs(denom-want) <= 1e-9*math.Max(1, math.Abs(want))) {
			t.Fatalf("inconsistent denominator accepted: %v (postings give %v)", denom, want)
		}
	})
}

// FuzzDict holds the dictionary to a map and a slice: data is a
// sequence of AppendIDs calls, split at 0x01, each over its terms, split
// at 0x00 — arbitrary bytes, the empty term and repeats within a call
// included — and then grow generated terms, interned a hundred to a
// call, which rebuilds the probe column several times. Every id, every
// Lookup (−1 for a term never interned), every term a view reads and
// the order SortByTerm puts them in must be the reference's.
func FuzzDict(f *testing.F) {
	f.Add([]byte("raid\x00disk\x00raid\x01\x00\x01hotel\x00\xff\xfe\x00raid"), uint16(0))
	f.Add([]byte("a\x00a\x00a\x01b"), uint16(2000))
	f.Add([]byte{}, uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, grow uint16) {
		d := NewDict()
		ids := map[string]int32{}
		var terms []string
		intern := func(call []string) {
			for _, s := range call {
				want, ok := ids[s]
				if !ok {
					want = -1
				}
				if got := d.Lookup(s); got != want {
					t.Fatalf("Lookup(%q) before the call = %d, want %d", s, got, want)
				}
			}
			got := d.AppendIDs([]int32{-7}, call)
			if len(got) != len(call)+1 || got[0] != -7 {
				t.Fatalf("AppendIDs did not append %d ids to dst: %v", len(call), got)
			}
			for i, s := range call {
				id, ok := ids[s]
				if !ok {
					id = int32(len(terms))
					ids[s], terms = id, append(terms, s)
				}
				if got[i+1] != id {
					t.Fatalf("AppendIDs gave %q id %d, want %d", s, got[i+1], id)
				}
			}
		}
		for _, call := range bytes.Split(data, []byte{1}) {
			var strs []string
			for _, s := range bytes.Split(call, []byte{0}) {
				strs = append(strs, string(s))
			}
			intern(strs)
		}
		for lo := 0; lo < int(grow); lo += 100 {
			var strs []string
			for i := lo; i < min(lo+100, int(grow)); i++ {
				strs = append(strs, fmt.Sprintf("%x/%d", data[:min(len(data), 8)], i))
			}
			intern(strs)
		}
		v := d.Terms()
		if v.Len() != len(terms) {
			t.Fatalf("view holds %d terms, want %d", v.Len(), len(terms))
		}
		for id, s := range terms {
			if got := v.Term(int32(id)); got != s {
				t.Fatalf("view reads id %d as %q, want %q", id, got, s)
			}
			if got := d.Lookup(s); got != int32(id) {
				t.Fatalf("Lookup(%q) = %d, want %d", s, got, id)
			}
			if got := d.Lookup(s + "\x01"); got != -1 { // no interned term holds 0x01
				t.Fatalf("Lookup of the unseen %q = %d, want -1", s+"\x01", got)
			}
		}
		byTerm := make([]int32, len(terms))
		for id := range byTerm {
			byTerm[id] = int32(id)
		}
		SortByTerm(v, byTerm)
		for i := 1; i < len(byTerm); i++ {
			if a, b := terms[byTerm[i-1]], terms[byTerm[i]]; a >= b {
				t.Fatalf("SortByTerm puts %q before %q", a, b)
			}
		}
	})
}
