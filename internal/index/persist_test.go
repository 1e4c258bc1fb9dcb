package index

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/secfile"
)

// fixtureNames are the fixture's terms, in the ascending order the
// column form lists them in.
var fixtureNames = []string{"hotel", "pool", "raid"}

// fixtureSnapshot is the consistent base every corrupt snapshot starts
// from: three units, three terms, statistics that validate.
func fixtureSnapshot() columns {
	logTF := func(tf int32) float64 { return math.Log(float64(tf)) + 1 }
	return columns{
		ends: []int32{1, 2, 4},
		posts: []Posting{
			{Unit: 1, TF: 1},                   // hotel
			{Unit: 1, TF: 2},                   // pool
			{Unit: 0, TF: 2}, {Unit: 2, TF: 1}, // raid
		},
		denoms:      []float64{logTF(2), logTF(1) + logTF(2), logTF(1)},
		uniques:     []int32{1, 2, 1},
		totalUnique: 4,
	}
}

// fixtureCompact is the fixture's valid compact file.
func fixtureCompact(t *testing.T) []byte {
	t.Helper()
	c := fixtureSnapshot()
	// Every posting filed under the remainder run: the encoder merges
	// whatever the runs hold.
	lists, lo := make([]list, len(c.ends)), int32(0)
	for i, hi := range c.ends {
		lists[i], lo = list{more: c.posts[lo:hi]}, hi
	}
	valid, err := appendCompact(fixtureNames, lists, &c)
	if err != nil {
		t.Fatal(err)
	}
	return valid
}

// TestValidateSnapshotRejects mutates the valid base snapshot one
// invariant at a time and requires validateSnapshot to name the break:
// these would otherwise load silently and panic (ix.denoms[p.Unit]) or
// misrank (binary-search Weight, LogTF = -Inf) at query time. Several —
// a negative unit, an empty list, ragged columns — no compact file can
// spell, so they are reachable only here; TestCompactNegativePaths
// proves the rest through Load as well.
func TestValidateSnapshotRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(s *columns)
		wantSub string
	}{
		{
			name:    "unit_out_of_range",
			mutate:  func(s *columns) { s.posts[3].Unit = 99 },
			wantSub: "posting unit 99 out of range [0, 3)",
		},
		{
			name:    "unit_negative",
			mutate:  func(s *columns) { s.posts[0].Unit = -1 },
			wantSub: "out of range",
		},
		{
			name: "units_not_ascending",
			mutate: func(s *columns) {
				s.posts[2], s.posts[3] = Posting{Unit: 2, TF: 1}, Posting{Unit: 0, TF: 2}
			},
			wantSub: "not strictly ascending",
		},
		{
			name: "unit_duplicated",
			mutate: func(s *columns) {
				s.posts[2], s.posts[3] = Posting{Unit: 2, TF: 2}, Posting{Unit: 2, TF: 1}
			},
			wantSub: "not strictly ascending",
		},
		{
			name:    "zero_tf",
			mutate:  func(s *columns) { s.posts[0].TF = 0 },
			wantSub: "term frequency 0 (must be >= 1)",
		},
		{
			name:    "empty_posting_list",
			mutate:  func(s *columns) { s.ends = append(s.ends, 4) }, // a fourth list, "zzz", of nothing
			wantSub: "empty posting list",
		},
		{
			name:    "unique_count_mismatch",
			mutate:  func(s *columns) { s.uniques[1] = 7 },
			wantSub: "declares 7 unique terms",
		},
		{
			name:    "denominator_mismatch",
			mutate:  func(s *columns) { s.denoms[0] = 42 },
			wantSub: "weight denominator 42 inconsistent",
		},
		{
			// NaN fails every ordered comparison; the tolerance check is
			// written so that it is rejected, not waved through.
			name:    "denominator_nan",
			mutate:  func(s *columns) { s.denoms[2] = math.NaN() },
			wantSub: "weight denominator NaN inconsistent",
		},
		{
			name:    "total_unique_mismatch",
			mutate:  func(s *columns) { s.totalUnique = 99 },
			wantSub: "totalUnique 99 inconsistent",
		},
		{
			name:    "column_length_mismatch",
			mutate:  func(s *columns) { s.uniques = s.uniques[:2] },
			wantSub: "3 weight denominators but 2 unique-term counts",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := fixtureSnapshot()
			tc.mutate(&snap)
			err := snap.validate(append(fixtureNames[:3:3], "zzz"))
			if err == nil {
				t.Fatal("invariant-breaking snapshot validated")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestCompactRoundTripByteIdentical is the determinism property the
// on-disk spec promises: build → write → read → re-write produces the
// identical byte string, across randomized index shapes.
func TestCompactRoundTripByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	vocab := []string{"raid", "disk", "hotel", "pool", "flight", "visa", "panic", "goroutine", "fever", "dose"}
	for trial := 0; trial < 25; trial++ {
		ix := New()
		for u, n := 0, 1+rng.Intn(12); u < n; u++ {
			var terms []string
			for len(terms) == 0 {
				for _, w := range vocab {
					for c := rng.Intn(4); c > 0; c-- {
						terms = append(terms, w)
					}
				}
			}
			ix.Add(terms)
		}
		var first bytes.Buffer
		if _, err := ix.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		reloaded := New()
		if err := reloaded.Load(first.Bytes()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var second bytes.Buffer
		if _, err := reloaded.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: re-written snapshot differs (%d vs %d bytes)", trial, first.Len(), second.Len())
		}
	}
}

// corruptCompact re-encodes the valid compact snapshot of the fixture
// index with one section's payload replaced — the hand-crafted
// corruption path for defects appendCompact itself refuses to write.
func corruptCompact(t *testing.T, tag string, payload []byte) []byte {
	t.Helper()
	return replaceSection(t, fixtureCompact(t), tag, payload)
}

func TestCompactNegativePaths(t *testing.T) {
	// Section bodies for the fixture snapshot, for surgical corruption.
	// Terms sort as: hotel, pool, raid.
	posting := func(entries ...uint64) []byte {
		var b []byte
		for _, e := range entries {
			b = appendUvarint(b, e)
		}
		return b
	}
	// unitSec spells the fixture's "unit" section with its columns
	// edited: well-formed bytes whose statistics lie about the postings.
	unitSec := func(edit func(s *columns)) []byte {
		s := fixtureSnapshot()
		edit(&s)
		b := appendUvarint(nil, uint64(len(s.denoms)))
		b = secfile.AppendFloat64s(b, s.denoms)
		uniq := make([]uint32, len(s.uniques))
		for i, u := range s.uniques {
			uniq[i] = uint32(u)
		}
		return secfile.AppendUint32s(b, uniq)
	}
	cases := []struct {
		name    string
		data    func(t *testing.T) []byte
		wantSub string
	}{
		{
			name: "first unit out of range",
			// hotel: df 1, unit 9, tf 1 — beyond the 3 declared units.
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "post", posting(1, 9, 1, 1, 1, 2, 2, 0, 2, 2, 1))
			},
			wantSub: "posting unit 9 out of range",
		},
		{
			name: "zero delta",
			// pool gets df 2 with a zero second delta: units repeat.
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "post", posting(1, 1, 1, 2, 1, 2, 0, 2, 2, 0, 2, 2, 1))
			},
			wantSub: "zero delta",
		},
		{
			name: "delta walks past the unit count",
			// raid: first unit 0, delta 7 → unit 7 of 3.
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "post", posting(1, 1, 1, 1, 1, 2, 2, 0, 2, 7, 1))
			},
			wantSub: "out of range",
		},
		{
			name: "zero TF",
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "post", posting(1, 1, 0, 1, 1, 2, 2, 0, 2, 2, 1))
			},
			wantSub: "TF 0 (must be in [1, 2^31))",
		},
		{
			name: "df overruns unit count",
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "post", posting(9, 1, 1, 1, 1, 2, 2, 0, 2, 2, 1))
			},
			wantSub: "declares 9 postings over 3 units",
		},
		{
			name: "posting section truncated",
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "post", posting(1, 1, 1, 1, 1, 2, 2, 0, 2))
			},
			wantSub: "truncated varint",
		},
		{
			name: "posting section trailing bytes",
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "post", posting(1, 1, 1, 1, 1, 2, 2, 0, 2, 2, 1, 5))
			},
			wantSub: "trailing bytes in posting section",
		},
		{
			name: "unit columns short",
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "unit", appendUvarint(nil, 3))
			},
			wantSub: "unit columns for 3 units need 36 bytes, have 0",
		},
		{
			name: "stat section trailing bytes",
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "stat", posting(4, 4))
			},
			wantSub: "trailing bytes in stat section",
		},
		{
			name: "missing section",
			data: func(t *testing.T) []byte {
				return dropSection(t, fixtureCompact(t), "stat")
			},
			wantSub: `missing section "stat"`,
		},
		{
			name: "statistics lie about the postings",
			// Structurally pristine compact file whose stat section claims
			// totalUnique 9: only validateSnapshot can catch it.
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "stat", appendUvarint(nil, 9))
			},
			wantSub: "totalUnique 9 inconsistent",
		},
		{
			name: "unique count lies about the postings",
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "unit", unitSec(func(s *columns) { s.uniques[1] = 7 }))
			},
			wantSub: "declares 7 unique terms",
		},
		{
			name: "denominator lies about the postings",
			data: func(t *testing.T) []byte {
				return corruptCompact(t, "unit", unitSec(func(s *columns) { s.denoms[0] = 42 }))
			},
			wantSub: "weight denominator 42 inconsistent",
		},
		{
			name: "payload bit flip",
			data: func(t *testing.T) []byte {
				valid := fixtureCompact(t)
				valid[len(valid)-1] ^= 0x80
				return valid
			},
			wantSub: "checksum mismatch",
		},
		{
			name: "compact trailing garbage",
			data: func(t *testing.T) []byte {
				return append(fixtureCompact(t), 0xEE, 0xEE)
			},
			wantSub: "trailing bytes",
		},
		{
			name: "compact truncated",
			data: func(t *testing.T) []byte {
				valid := fixtureCompact(t)
				return valid[:len(valid)-5]
			},
			wantSub: "truncated",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := buildIndex([]string{"keep", "me"})
			err := ix.Load(tc.data(t))
			if err == nil {
				t.Fatal("corrupt compact snapshot loaded without error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if ix.NumUnits() != 1 || ix.NumTerms() != 2 {
				t.Fatal("failed load mutated the index")
			}
		})
	}
}

// TestReadFromTrailingGarbage covers reading a file that holds more than
// one snapshot: surplus bytes after a valid one fail the load.
func TestReadFromTrailingGarbage(t *testing.T) {
	ix := buildIndex([]string{"raid"}, []string{"hotel"})
	t.Run("compact", func(t *testing.T) {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("concatenated second snapshot, say")
		if err := New().Load(buf.Bytes()); err == nil {
			t.Fatal("trailing garbage accepted")
		} else if !strings.Contains(err.Error(), "trailing bytes") {
			t.Fatalf("error %q does not mention trailing bytes", err)
		}
	})
}

// TestWriteToErrors: a write that fails reports the error, and an index
// whose state no file can carry is refused before anything is written.
func TestWriteToErrors(t *testing.T) {
	ix := buildIndex([]string{"raid", "raid"}, []string{"hotel"})
	r, w := io.Pipe()
	r.Close()
	if _, err := ix.WriteTo(w); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("WriteTo into a closed pipe: %v", err)
	}
	ix.more[ix.slot[ix.dict.Lookup("raid")]][0].TF = 0
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err == nil || !strings.Contains(err.Error(), "TF 0") || buf.Len() != 0 {
		t.Fatalf("WriteTo of a zero-TF posting: %d bytes, %v", buf.Len(), err)
	}
}
