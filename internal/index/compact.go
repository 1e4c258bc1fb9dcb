package index

import (
	"bytes"
	"fmt"
	"io"
	"math"

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
//	        Eq 7 numerator log(TF)+1 would be -Inf at TF = 0).
//	"unit"  per-unit statistics as fixed-width columns: uvarint unit
//	        count, a float64 column of Eq 7 weight denominators, a
//	        uint32 column of unique-term counts.
//	"stat"  collection statistics: uvarint totalUnique (the NU-average
//	        numerator; cross-checked against the unit column on load).
//
// The index in memory is these same columns (columns.go) with the term
// strings swapped for ids of the shared Dict. Persistence lets an index
// be saved after the paper's offline phase (Sec 7 "Indexing") and served
// without re-processing the collection; in such a build-rarely,
// serve-forever deployment the load is the only line of defense, so
// everything derivable is cross-checked against the postings and a
// snapshot that decodes but violates a query-path invariant is rejected
// with a descriptive error instead of panicking or misranking later.

const (
	// CompactIndexMagic identifies a compact index file (or embedded
	// cluster blob).
	CompactIndexMagic = "RFCI"
	// compactIndexVersion is the newest compact index layout this build
	// writes and reads.
	compactIndexVersion = 1
)

// WriteTo serializes the index in the compact section layout, terms
// ascending whatever order they arrived in, so write → read → re-write
// is byte-identical. It implements io.WriterTo. The owner holds at least
// its read lock: lists grow in place, so a concurrent Add must wait.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	terms := ix.dict.Terms()
	ids := make([]int32, 0, len(ix.slot))
	for t := range ix.slot {
		ids = append(ids, t)
	}
	SortByTerm(terms, ids)
	names, lists := make([][]byte, len(ids)), make([]list, len(ids))
	for i, t := range ids {
		names[i], lists[i] = terms.Bytes(t), ix.listAt(ix.slot[t])
	}
	data, err := appendCompact(names, lists, &columns{denoms: ix.denoms, uniques: ix.uniques, totalUnique: ix.totalUnique})
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// Load replaces the index contents with a snapshot written by WriteTo,
// held in memory (read or mapped): it decodes, validates every
// query-path invariant, and only then interns the snapshot's terms and
// swaps the decoded state in. The owner holds its write lock around it.
// Bytes after a valid snapshot are an error: a concatenation or double
// write fails at load instead of silently serving a prefix.
func (ix *Index) Load(data []byte) error {
	c, names, err := decodeCompact(data)
	if err != nil {
		return err
	}
	if err := c.validate(names); err != nil {
		return fmt.Errorf("index: invalid snapshot: %w", err)
	}
	c.terms = ix.dict.AppendIDs(make([]int32, 0, len(names)), names)
	ix.install(c)
	return nil
}

// appendCompact encodes posting lists — lists[i] is the list of
// names[i], names ascending, its two runs merged by unit into the one
// list the file knows — and the unit columns of c into the compact
// layout and returns the file bytes.
func appendCompact[S ~string | ~[]byte](names []S, lists []list, c *columns) ([]byte, error) {
	termSec := secfile.AppendStringTable(nil, names)

	var postSec []byte
	for i, l := range lists {
		t := names[i]
		postSec = secfile.AppendUvarint(postSec, uint64(l.len()))
		prev := int32(-1)
		for ones, more := l.ones, l.more; len(ones) > 0 || len(more) > 0; {
			var p Posting
			if len(more) == 0 || (len(ones) > 0 && ones[0] < more[0].Unit) {
				p, ones = Posting{Unit: ones[0], TF: 1}, ones[1:]
			} else {
				p, more = more[0], more[1:]
			}
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

	if len(c.denoms) != len(c.uniques) {
		return nil, fmt.Errorf("index: %d denominators but %d unique counts", len(c.denoms), len(c.uniques))
	}
	unitSec := secfile.AppendUvarint(nil, uint64(len(c.denoms)))
	unitSec = secfile.AppendFloat64s(unitSec, c.denoms)
	uniq := make([]uint32, len(c.uniques))
	for i, u := range c.uniques {
		if u < 0 {
			return nil, fmt.Errorf("index: unit %d has negative unique-term count %d", i, u)
		}
		uniq[i] = uint32(u)
	}
	unitSec = secfile.AppendUint32s(unitSec, uniq)

	statSec := secfile.AppendUvarint(nil, uint64(c.totalUnique))

	var buf bytes.Buffer
	_, err := secfile.Encode(&buf, CompactIndexMagic, compactIndexVersion, []secfile.Section{
		{Tag: "term", Data: termSec},
		{Tag: "post", Data: postSec},
		{Tag: "unit", Data: unitSec},
		{Tag: "stat", Data: statSec},
	})
	return buf.Bytes(), err
}

// decodeCompact parses a compact index file into columns, with the
// terms still as the file's strings (names[i] is list i's; Load interns
// them once the snapshot has validated, which is the caller's next
// step: validate).
func decodeCompact(data []byte) (c columns, names []string, err error) {
	f, err := secfile.Decode(data, CompactIndexMagic, compactIndexVersion)
	if err != nil {
		return c, nil, err
	}

	termSec, err := f.Section("term")
	if err != nil {
		return c, nil, err
	}
	names, rest, err := secfile.ParseStringTable(termSec)
	if err != nil {
		return c, nil, fmt.Errorf("index: term dictionary: %w", err)
	}
	if len(rest) != 0 {
		return c, nil, fmt.Errorf("index: %d trailing bytes in term dictionary", len(rest))
	}

	unitSec, err := f.Section("unit")
	if err != nil {
		return c, nil, err
	}
	n64, unitSec, err := secfile.Uvarint(unitSec)
	if err != nil {
		return c, nil, fmt.Errorf("index: unit count: %w", err)
	}
	if n64 > uint64(math.MaxInt32) {
		return c, nil, fmt.Errorf("index: unit count %d exceeds int32 ids", n64)
	}
	nUnits := int(n64)
	if uint64(len(unitSec)) != uint64(nUnits)*12 {
		return c, nil, fmt.Errorf("index: unit columns for %d units need %d bytes, have %d", nUnits, nUnits*12, len(unitSec))
	}
	c.denoms, err = secfile.Float64Col(unitSec[:nUnits*8], nUnits)
	if err != nil {
		return c, nil, fmt.Errorf("index: denominator column: %w", err)
	}
	uniq, err := secfile.Uint32Col(unitSec[nUnits*8:], nUnits)
	if err != nil {
		return c, nil, fmt.Errorf("index: unique-count column: %w", err)
	}
	c.uniques = make([]int32, nUnits)
	for i, u := range uniq {
		if u > uint32(math.MaxInt32) {
			return c, nil, fmt.Errorf("index: unit %d unique-term count %d overflows int32", i, u)
		}
		c.uniques[i] = int32(u)
	}

	postSec, err := f.Section("post")
	if err != nil {
		return c, nil, err
	}
	// Every varint ends in one byte below 0x80 and a well-formed section
	// holds one per list plus two per posting, so this sizes the posting
	// array exactly; on anything else it is only a bounded first guess.
	varints := 0
	for _, b := range postSec {
		if b < 0x80 {
			varints++
		}
	}
	c.posts = make([]Posting, 0, max(0, varints-len(names))/2)
	c.ends = make([]int32, len(names))
	for ti, t := range names {
		df64, rest, err := secfile.Uvarint(postSec)
		if err != nil {
			return c, nil, fmt.Errorf("index: term %q postings: %w", t, err)
		}
		postSec = rest
		if df64 > uint64(nUnits) {
			return c, nil, fmt.Errorf("index: term %q declares %d postings over %d units", t, df64, nUnits)
		}
		if ti > 0 && t <= names[ti-1] {
			return c, nil, fmt.Errorf("index: term dictionary not sorted at %q", t)
		}
		prev := int64(-1)
		for i := 0; i < int(df64); i++ {
			delta, rest, err := secfile.Uvarint(postSec)
			if err != nil {
				return c, nil, fmt.Errorf("index: term %q posting %d delta: %w", t, i, err)
			}
			tf, rest2, err := secfile.Uvarint(rest)
			if err != nil {
				return c, nil, fmt.Errorf("index: term %q posting %d TF: %w", t, i, err)
			}
			postSec = rest2
			if i > 0 && delta == 0 {
				return c, nil, fmt.Errorf("index: term %q postings not strictly ascending (zero delta at %d)", t, i)
			}
			unit := prev + int64(delta)
			if i == 0 {
				unit = int64(delta) // the first delta is the absolute id
			}
			if unit >= int64(nUnits) {
				return c, nil, fmt.Errorf("index: term %q posting unit %d out of range [0, %d)", t, unit, nUnits)
			}
			if tf < 1 || tf > uint64(math.MaxInt32) {
				return c, nil, fmt.Errorf("index: term %q unit %d has TF %d (must be in [1, 2^31))", t, unit, tf)
			}
			c.posts = append(c.posts, Posting{Unit: int32(unit), TF: int32(tf)})
			prev = unit
		}
		if len(c.posts) > math.MaxInt32 {
			return c, nil, fmt.Errorf("index: more than 2^31 postings")
		}
		c.ends[ti] = int32(len(c.posts))
	}
	if len(postSec) != 0 {
		return c, nil, fmt.Errorf("index: %d trailing bytes in posting section", len(postSec))
	}

	statSec, err := f.Section("stat")
	if err != nil {
		return c, nil, err
	}
	tot, statSec, err := secfile.Uvarint(statSec)
	if err != nil {
		return c, nil, fmt.Errorf("index: totalUnique: %w", err)
	}
	if len(statSec) != 0 {
		return c, nil, fmt.Errorf("index: %d trailing bytes in stat section", len(statSec))
	}
	if tot > uint64(math.MaxInt64) {
		return c, nil, fmt.Errorf("index: totalUnique %d overflows int64", tot)
	}
	c.totalUnique = int64(tot)
	return c, names, nil
}
