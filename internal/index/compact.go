package index

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/secfile"
)

// Compact on-disk codec for one Index: the interned-dictionary,
// delta-varint, fixed-column layout of DESIGN.md §6 ("On-disk format").
// The file is a secfile container — magic "RFCI", version 1 — with four
// sections:
//
//	"term"  interned term dictionary: the vocabulary sorted ascending,
//	        as a secfile string table (count, uint32 end-offset column,
//	        concatenated bytes) — binary-searchable in place.
//	"post"  posting lists, one per dictionary term in dictionary order:
//	        uvarint df, then df × (uvarint unit-delta, uvarint TF). The
//	        first delta is the unit id itself; each subsequent delta is
//	        the gap to the previous unit and must be ≥ 1, so unit ids
//	        are strictly ascending by construction — the invariant the
//	        binary-search Weight path depends on. TF must be ≥ 1 (the
//	        LogTF numerator, recomputed on load, is log(TF)+1 and would
//	        be -Inf at TF = 0).
//	"unit"  per-unit statistics as fixed-width columns: uvarint unit
//	        count, a float64 column of Eq 7 weight denominators, a
//	        uint32 column of unique-term counts.
//	"stat"  collection statistics: uvarint totalUnique (the NU-average
//	        numerator; cross-checked against the unit column on load).
//
// Everything derivable is recomputed on load (LogTF) or cross-checked
// against the postings (unique counts, denominators, totalUnique), so a
// snapshot that decodes but violates a query-path invariant is rejected
// by validateSnapshot with a descriptive error instead of panicking or
// misranking at query time.

const (
	// CompactIndexMagic identifies a compact index file (or embedded
	// cluster blob).
	CompactIndexMagic = "RFCI"
	// compactIndexVersion is the newest compact index layout this build
	// writes and reads.
	compactIndexVersion = 1
)

// appendCompact encodes snap into the compact layout and returns the
// file bytes. The encoding is deterministic — terms are emitted in
// sorted order — so write → read → re-write is byte-identical (the
// round-trip property test pins this).
func appendCompact(snap snapshot) ([]byte, error) {
	terms := make([]string, 0, len(snap.Postings))
	for t := range snap.Postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)

	termSec := secfile.AppendStringTable(nil, terms)

	var postSec []byte
	for _, t := range terms {
		posts := snap.Postings[t]
		postSec = secfile.AppendUvarint(postSec, uint64(len(posts)))
		prev := int32(-1)
		for _, p := range posts {
			if p.Unit <= prev {
				return nil, fmt.Errorf("index: term %q postings not strictly ascending (unit %d after %d)", t, p.Unit, prev)
			}
			if p.TF < 1 {
				return nil, fmt.Errorf("index: term %q unit %d has TF %d (must be >= 1)", t, p.Unit, p.TF)
			}
			// The first delta is the absolute unit id; each later delta is
			// the gap to the previous unit (≥ 1 under strict ascent).
			delta := uint64(p.Unit)
			if prev >= 0 {
				delta = uint64(p.Unit - prev)
			}
			postSec = secfile.AppendUvarint(postSec, delta)
			postSec = secfile.AppendUvarint(postSec, uint64(p.TF))
			prev = p.Unit
		}
	}

	if len(snap.Denoms) != len(snap.Uniques) {
		return nil, fmt.Errorf("index: %d denominators but %d unique counts", len(snap.Denoms), len(snap.Uniques))
	}
	unitSec := secfile.AppendUvarint(nil, uint64(len(snap.Denoms)))
	unitSec = secfile.AppendFloat64s(unitSec, snap.Denoms)
	uniq := make([]uint32, len(snap.Uniques))
	for i, u := range snap.Uniques {
		if u < 0 {
			return nil, fmt.Errorf("index: unit %d has negative unique-term count %d", i, u)
		}
		uniq[i] = uint32(u)
	}
	unitSec = secfile.AppendUint32s(unitSec, uniq)

	statSec := secfile.AppendUvarint(nil, uint64(snap.TotalUnique))

	var buf appendBuffer
	if _, err := secfile.Encode(&buf, CompactIndexMagic, compactIndexVersion, []secfile.Section{
		{Tag: "term", Data: termSec},
		{Tag: "post", Data: postSec},
		{Tag: "unit", Data: unitSec},
		{Tag: "stat", Data: statSec},
	}); err != nil {
		return nil, err
	}
	return buf.b, nil
}

// decodeCompact parses a compact index file into snapshot form. It
// reconstructs the postings map and unit columns; invariant validation
// (ascending units in range, TF ≥ 1, consistent per-unit statistics) is
// validateSnapshot's, which the caller runs next.
func decodeCompact(data []byte) (snapshot, error) {
	var snap snapshot
	f, err := secfile.Decode(data, CompactIndexMagic, compactIndexVersion)
	if err != nil {
		return snap, err
	}

	termSec, err := f.Section("term")
	if err != nil {
		return snap, err
	}
	terms, rest, err := secfile.ParseStringTable(termSec)
	if err != nil {
		return snap, fmt.Errorf("index: term dictionary: %w", err)
	}
	if len(rest) != 0 {
		return snap, fmt.Errorf("index: %d trailing bytes in term dictionary", len(rest))
	}

	unitSec, err := f.Section("unit")
	if err != nil {
		return snap, err
	}
	n64, unitSec, err := secfile.Uvarint(unitSec)
	if err != nil {
		return snap, fmt.Errorf("index: unit count: %w", err)
	}
	if n64 > uint64(math.MaxInt32) {
		return snap, fmt.Errorf("index: unit count %d exceeds int32 ids", n64)
	}
	nUnits := int(n64)
	if uint64(len(unitSec)) != uint64(nUnits)*12 {
		return snap, fmt.Errorf("index: unit columns for %d units need %d bytes, have %d", nUnits, nUnits*12, len(unitSec))
	}
	snap.Denoms, err = secfile.Float64Col(unitSec[:nUnits*8], nUnits)
	if err != nil {
		return snap, fmt.Errorf("index: denominator column: %w", err)
	}
	uniq, err := secfile.Uint32Col(unitSec[nUnits*8:], nUnits)
	if err != nil {
		return snap, fmt.Errorf("index: unique-count column: %w", err)
	}
	snap.Uniques = make([]int32, nUnits)
	for i, u := range uniq {
		if u > uint32(math.MaxInt32) {
			return snap, fmt.Errorf("index: unit %d unique-term count %d overflows int32", i, u)
		}
		snap.Uniques[i] = int32(u)
	}

	postSec, err := f.Section("post")
	if err != nil {
		return snap, err
	}
	snap.Postings = make(map[string][]Posting, len(terms))
	for ti, t := range terms {
		df64, rest, err := secfile.Uvarint(postSec)
		if err != nil {
			return snap, fmt.Errorf("index: term %q postings: %w", t, err)
		}
		postSec = rest
		if df64 > uint64(nUnits) {
			return snap, fmt.Errorf("index: term %q declares %d postings over %d units", t, df64, nUnits)
		}
		if ti > 0 && t <= terms[ti-1] {
			return snap, fmt.Errorf("index: term dictionary not sorted at %q", t)
		}
		posts := make([]Posting, int(df64))
		prev := int64(-1)
		for i := range posts {
			delta, rest, err := secfile.Uvarint(postSec)
			if err != nil {
				return snap, fmt.Errorf("index: term %q posting %d delta: %w", t, i, err)
			}
			tf, rest2, err := secfile.Uvarint(rest)
			if err != nil {
				return snap, fmt.Errorf("index: term %q posting %d TF: %w", t, i, err)
			}
			postSec = rest2
			if i > 0 && delta == 0 {
				return snap, fmt.Errorf("index: term %q postings not strictly ascending (zero delta at %d)", t, i)
			}
			unit := prev + int64(delta)
			if i == 0 {
				unit = int64(delta) // the first delta is the absolute id
			}
			if unit >= int64(nUnits) {
				return snap, fmt.Errorf("index: term %q posting unit %d out of range [0, %d)", t, unit, nUnits)
			}
			if tf < 1 || tf > uint64(math.MaxInt32) {
				return snap, fmt.Errorf("index: term %q unit %d has TF %d (must be in [1, 2^31))", t, unit, tf)
			}
			posts[i] = Posting{Unit: int32(unit), TF: int32(tf)}
			prev = unit
		}
		snap.Postings[t] = posts
	}
	if len(postSec) != 0 {
		return snap, fmt.Errorf("index: %d trailing bytes in posting section", len(postSec))
	}

	statSec, err := f.Section("stat")
	if err != nil {
		return snap, err
	}
	tot, statSec, err := secfile.Uvarint(statSec)
	if err != nil {
		return snap, fmt.Errorf("index: totalUnique: %w", err)
	}
	if len(statSec) != 0 {
		return snap, fmt.Errorf("index: %d trailing bytes in stat section", len(statSec))
	}
	if tot > uint64(math.MaxInt64) {
		return snap, fmt.Errorf("index: totalUnique %d overflows int64", tot)
	}
	snap.TotalUnique = int64(tot)
	return snap, nil
}

// appendBuffer is a minimal io.Writer over an append-grown slice
// (bytes.Buffer would copy on Bytes()-stability grounds we don't need).
type appendBuffer struct{ b []byte }

func (a *appendBuffer) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}
