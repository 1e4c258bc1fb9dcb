// Package secfile implements the section-file container every compact
// on-disk artifact of this repo shares: a fixed header (4-byte magic,
// little-endian uint16 version, uint16 section count), a section table
// of (tag, offset, length, CRC-32) entries, and the section payloads
// laid out back to back. The layout is mmap-ready by construction — a
// reader that has the file bytes in memory (read or mapped) locates any
// section from the table alone and slices its payload without copying
// or decoding, and the fixed-width columns the index stores inside
// sections can be walked in place.
//
// Every structural defect a damaged file can exhibit maps to a distinct
// descriptive error: wrong magic, a version from the future, a table
// that overruns the file, sections that overlap or leave gaps, payloads
// the file is too short to hold (truncation), bytes past the last
// payload (trailing garbage), and payload corruption (per-section CRC-32
// mismatch). Loaders built on Decode therefore fail loudly at load time
// instead of deferring corruption to query time.
//
// Layout, byte for byte (all integers little-endian):
//
//	offset 0:  magic   [4]byte   caller-chosen file type tag
//	offset 4:  version uint16    format version, 1-based
//	offset 6:  nsec    uint16    number of sections
//	offset 8:  table   nsec × 24 bytes:
//	               tag    [4]byte  section name
//	               off    uint64   absolute payload offset
//	               length uint64   payload byte count
//	               crc    uint32   CRC-32 (IEEE) of the payload
//	payloads:  concatenated in table order, first at 8 + 24·nsec,
//	           contiguous (off[i+1] = off[i] + length[i]), and the file
//	           ends exactly at the last payload's end.
package secfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// headerSize is the fixed prefix before the section table.
const headerSize = 8

// entrySize is one section-table entry: tag[4] + off[8] + len[8] + crc[4].
const entrySize = 24

// Section is one named payload of a section file.
type Section struct {
	Tag  string // exactly 4 bytes
	Data []byte
}

// Encode writes a section file: header, table, payloads. Sections are
// written in the given order; tags must be exactly 4 bytes and unique.
func Encode(w io.Writer, magic string, version uint16, secs []Section) (int64, error) {
	if len(magic) != 4 {
		return 0, fmt.Errorf("secfile: magic %q is not 4 bytes", magic)
	}
	if len(secs) > math.MaxUint16 {
		return 0, fmt.Errorf("secfile: %d sections exceed the uint16 table", len(secs))
	}
	seen := make(map[string]bool, len(secs))
	hdr := make([]byte, headerSize+entrySize*len(secs))
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:], version)
	binary.LittleEndian.PutUint16(hdr[6:], uint16(len(secs)))
	off := uint64(len(hdr))
	for i, s := range secs {
		if len(s.Tag) != 4 {
			return 0, fmt.Errorf("secfile: section tag %q is not 4 bytes", s.Tag)
		}
		if seen[s.Tag] {
			return 0, fmt.Errorf("secfile: duplicate section tag %q", s.Tag)
		}
		seen[s.Tag] = true
		e := hdr[headerSize+entrySize*i:]
		copy(e, s.Tag)
		binary.LittleEndian.PutUint64(e[4:], off)
		binary.LittleEndian.PutUint64(e[12:], uint64(len(s.Data)))
		binary.LittleEndian.PutUint32(e[20:], crc32.ChecksumIEEE(s.Data))
		off += uint64(len(s.Data))
	}
	var n int64
	m, err := w.Write(hdr)
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, s := range secs {
		m, err := w.Write(s.Data)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// File is a decoded section file: validated payload slices, aliasing the
// input bytes (no copies), keyed by tag.
type File struct {
	Version  uint16
	sections map[string][]byte
}

// Decode validates a complete section file held in memory and returns
// its payload slices (aliasing data). maxVersion is the newest version
// the caller understands; newer files are rejected rather than
// misparsed. Every defect — wrong magic, future version, table overrun,
// non-contiguous sections, truncation, trailing bytes, checksum
// mismatch — is a distinct descriptive error.
func Decode(data []byte, magic string, maxVersion uint16) (*File, error) {
	if len(magic) != 4 {
		return nil, fmt.Errorf("secfile: magic %q is not 4 bytes", magic)
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("secfile: %d-byte input is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("secfile: bad magic %q (want %q)", data[:4], magic)
	}
	version := binary.LittleEndian.Uint16(data[4:])
	if version == 0 || version > maxVersion {
		return nil, fmt.Errorf("secfile: unsupported %s version %d (this build reads up to %d)", magic, version, maxVersion)
	}
	nsec := int(binary.LittleEndian.Uint16(data[6:]))
	tableEnd := headerSize + entrySize*nsec
	if len(data) < tableEnd {
		return nil, fmt.Errorf("secfile: truncated: %d-section table needs %d bytes, have %d", nsec, tableEnd, len(data))
	}
	f := &File{Version: version, sections: make(map[string][]byte, nsec)}
	want := uint64(tableEnd)
	for i := 0; i < nsec; i++ {
		e := data[headerSize+entrySize*i:]
		tag := string(e[:4])
		off := binary.LittleEndian.Uint64(e[4:])
		length := binary.LittleEndian.Uint64(e[12:])
		crc := binary.LittleEndian.Uint32(e[20:])
		if _, dup := f.sections[tag]; dup {
			return nil, fmt.Errorf("secfile: duplicate section %q", tag)
		}
		if off != want {
			return nil, fmt.Errorf("secfile: section %q at offset %d, want contiguous %d", tag, off, want)
		}
		if length > uint64(len(data)) || off+length > uint64(len(data)) {
			return nil, fmt.Errorf("secfile: truncated: section %q needs bytes [%d, %d), file has %d", tag, off, off+length, len(data))
		}
		payload := data[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("secfile: section %q checksum mismatch: %08x on disk, %08x computed", tag, crc, got)
		}
		f.sections[tag] = payload
		want = off + length
	}
	if want != uint64(len(data)) {
		return nil, fmt.Errorf("secfile: %d trailing bytes after the last section", uint64(len(data))-want)
	}
	return f, nil
}

// Section returns the payload of the named section, or an error naming
// the missing tag. The slice aliases the decoded input.
func (f *File) Section(tag string) ([]byte, error) {
	s, ok := f.sections[tag]
	if !ok {
		return nil, fmt.Errorf("secfile: missing section %q", tag)
	}
	return s, nil
}

// --- primitive encoding helpers shared by the compact codecs ---

// AppendUvarint appends v in unsigned LEB128 varint encoding.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// Uvarint decodes one varint from b and returns the remainder. Unlike
// binary.Uvarint it returns a descriptive error for truncated or
// overlong input instead of a sentinel count, and it rejects
// non-minimal encodings (a trailing 0x00 continuation byte) — every
// value has exactly one accepted byte sequence, which is what makes
// decode → re-encode byte-identical for the whole format.
func Uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		if n == 0 {
			return 0, nil, fmt.Errorf("secfile: truncated varint")
		}
		return 0, nil, fmt.Errorf("secfile: varint overflows uint64")
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("secfile: non-canonical varint encoding")
	}
	return v, b[n:], nil
}

// AppendFloat64s appends vals as fixed-width little-endian IEEE-754
// doubles — a fixed-stride column a mapped reader can index directly.
func AppendFloat64s(b []byte, vals []float64) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// Float64Col interprets b as a fixed-width float64 column of n entries.
func Float64Col(b []byte, n int) ([]float64, error) {
	if uint64(len(b)) != uint64(n)*8 {
		return nil, fmt.Errorf("secfile: float64 column of %d entries needs %d bytes, have %d", n, n*8, len(b))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// AppendUint32s appends vals as a fixed-width little-endian uint32 column.
func AppendUint32s(b []byte, vals []uint32) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// Uint32Col interprets b as a fixed-width uint32 column of n entries.
func Uint32Col(b []byte, n int) ([]uint32, error) {
	if uint64(len(b)) != uint64(n)*4 {
		return nil, fmt.Errorf("secfile: uint32 column of %d entries needs %d bytes, have %d", n, n*4, len(b))
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, nil
}

// AppendStringTable appends an interned string dictionary: uvarint
// count, a fixed-width uint32 column of cumulative end offsets (so entry
// i is blob[end[i-1]:end[i]], binary-searchable in place), then the
// concatenated string bytes. The entries may be strings or byte slices.
func AppendStringTable[S ~string | ~[]byte](b []byte, strs []S) []byte {
	b = AppendUvarint(b, uint64(len(strs)))
	var end uint32
	for _, s := range strs {
		end += uint32(len(s))
		b = binary.LittleEndian.AppendUint32(b, end)
	}
	for _, s := range strs {
		b = append(b, s...)
	}
	return b
}

// ParseStringTable decodes a dictionary written by AppendStringTable and
// returns it with the remaining bytes. The strings are copied out of b
// (one allocation for all bytes), so the result does not alias the file.
func ParseStringTable(b []byte) ([]string, []byte, error) {
	n64, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, fmt.Errorf("secfile: string table count: %w", err)
	}
	if n64 > uint64(len(b)) { // each entry needs ≥4 offset bytes
		return nil, nil, fmt.Errorf("secfile: string table declares %d entries in %d bytes", n64, len(b))
	}
	n := int(n64)
	if uint64(len(b)) < uint64(n)*4 {
		return nil, nil, fmt.Errorf("secfile: truncated string table offsets: %d entries need %d bytes, have %d", n, n*4, len(b))
	}
	ends, err := Uint32Col(b[:n*4], n)
	if err != nil {
		return nil, nil, err
	}
	b = b[n*4:]
	var prev uint32
	for i, e := range ends {
		if e < prev {
			return nil, nil, fmt.Errorf("secfile: string table offsets not ascending at entry %d", i)
		}
		prev = e
	}
	if uint64(prev) > uint64(len(b)) {
		return nil, nil, fmt.Errorf("secfile: truncated string table blob: offsets end at %d, have %d bytes", prev, len(b))
	}
	blob := string(b[:prev]) // one copy backs every string
	out := make([]string, n)
	var lo uint32
	for i, e := range ends {
		out[i] = blob[lo:e]
		lo = e
	}
	return out, b[prev:], nil
}
