package index

import (
	"bytes"
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
