package secfile

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func encodeValid(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := Encode(&buf, "TEST", 1, []Section{
		{Tag: "aaaa", Data: []byte("first payload")},
		{Tag: "bbbb", Data: nil}, // empty sections are legal
		{Tag: "cccc", Data: bytes.Repeat([]byte{0xAB}, 300)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data := encodeValid(t)
	f, err := Decode(data, "TEST", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != 1 {
		t.Errorf("version %d, want 1", f.Version)
	}
	a, err := f.Section("aaaa")
	if err != nil || string(a) != "first payload" {
		t.Errorf("section aaaa = %q, %v", a, err)
	}
	b, err := f.Section("bbbb")
	if err != nil || len(b) != 0 {
		t.Errorf("section bbbb = %d bytes, %v", len(b), err)
	}
	c, err := f.Section("cccc")
	if err != nil || len(c) != 300 {
		t.Errorf("section cccc = %d bytes, %v", len(c), err)
	}
	if _, err := f.Section("zzzz"); err == nil || !strings.Contains(err.Error(), `missing section "zzzz"`) {
		t.Errorf("missing section error = %v", err)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, "LONGMAGIC", 1, nil); err == nil {
		t.Error("non-4-byte magic accepted")
	}
	if _, err := Encode(&buf, "TEST", 1, []Section{{Tag: "toolong", Data: nil}}); err == nil {
		t.Error("non-4-byte tag accepted")
	}
	if _, err := Encode(&buf, "TEST", 1, []Section{{Tag: "aaaa"}, {Tag: "aaaa"}}); err == nil {
		t.Error("duplicate tag accepted")
	}
}

// TestDecodeNegativePaths is the damaged-file matrix (the PR-5 manifest
// test style): every structural defect must come back as a distinct,
// descriptive error — never a panic, never a silent success.
func TestDecodeNegativePaths(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
		wantSub string
	}{
		{
			name:    "empty input",
			corrupt: func(data []byte) []byte { return nil },
			wantSub: "shorter than",
		},
		{
			name:    "shorter than header",
			corrupt: func(data []byte) []byte { return data[:5] },
			wantSub: "shorter than",
		},
		{
			name: "wrong magic",
			corrupt: func(data []byte) []byte {
				data[0] = 'X'
				return data
			},
			wantSub: "bad magic",
		},
		{
			name: "future version",
			corrupt: func(data []byte) []byte {
				binary.LittleEndian.PutUint16(data[4:], 99)
				return data
			},
			wantSub: "unsupported TEST version 99",
		},
		{
			name: "version zero",
			corrupt: func(data []byte) []byte {
				binary.LittleEndian.PutUint16(data[4:], 0)
				return data
			},
			wantSub: "unsupported TEST version 0",
		},
		{
			name: "table overruns file",
			corrupt: func(data []byte) []byte {
				binary.LittleEndian.PutUint16(data[6:], 1000)
				return data
			},
			wantSub: "table needs",
		},
		{
			name:    "truncated mid-table",
			corrupt: func(data []byte) []byte { return data[:headerSize+entrySize+3] },
			wantSub: "table needs",
		},
		{
			name:    "truncated payload",
			corrupt: func(data []byte) []byte { return data[:len(data)-100] },
			wantSub: "truncated",
		},
		{
			name:    "trailing garbage",
			corrupt: func(data []byte) []byte { return append(data, "junk"...) },
			wantSub: "trailing bytes",
		},
		{
			name: "payload corruption",
			corrupt: func(data []byte) []byte {
				data[len(data)-1] ^= 0xFF // inside section cccc
				return data
			},
			wantSub: `section "cccc" checksum mismatch`,
		},
		{
			name: "checksum corruption in table",
			corrupt: func(data []byte) []byte {
				data[headerSize+20] ^= 0xFF // crc field of section aaaa
				return data
			},
			wantSub: `section "aaaa" checksum mismatch`,
		},
		{
			name: "non-contiguous sections",
			corrupt: func(data []byte) []byte {
				// Shift section bbbb's recorded offset forward by one.
				off := binary.LittleEndian.Uint64(data[headerSize+entrySize+4:])
				binary.LittleEndian.PutUint64(data[headerSize+entrySize+4:], off+1)
				return data
			},
			wantSub: "want contiguous",
		},
		{
			name: "duplicate section tag",
			corrupt: func(data []byte) []byte {
				copy(data[headerSize+entrySize:], "aaaa") // rename bbbb → aaaa
				return data
			},
			wantSub: "duplicate section",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.corrupt(encodeValid(t))
			f, err := Decode(data, "TEST", 1)
			if err == nil {
				t.Fatalf("Decode accepted %s (version %d)", tc.name, f.Version)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestVarintHelpers(t *testing.T) {
	b := AppendUvarint(nil, 0)
	b = AppendUvarint(b, 127)
	b = AppendUvarint(b, 1<<40)
	for _, want := range []uint64{0, 127, 1 << 40} {
		var v uint64
		var err error
		v, b, err = Uvarint(b)
		if err != nil || v != want {
			t.Fatalf("Uvarint = %d, %v; want %d", v, err, want)
		}
	}
	if _, _, err := Uvarint(nil); err == nil {
		t.Error("Uvarint on empty input should fail")
	}
	if _, _, err := Uvarint([]byte{0x80, 0x80}); err == nil {
		t.Error("Uvarint on truncated input should fail")
	}
	if _, _, err := Uvarint(bytes.Repeat([]byte{0xFF}, 11)); err == nil {
		t.Error("Uvarint on overlong input should fail")
	}
}

func TestColumns(t *testing.T) {
	fs := []float64{0, 1.5, -3.25}
	b := AppendFloat64s(nil, fs)
	got, err := Float64Col(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs {
		if got[i] != fs[i] {
			t.Errorf("float col[%d] = %v, want %v", i, got[i], fs[i])
		}
	}
	if _, err := Float64Col(b, 4); err == nil {
		t.Error("short float column accepted")
	}

	us := []uint32{0, 7, 1 << 30}
	ub := AppendUint32s(nil, us)
	gotU, err := Uint32Col(ub, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range us {
		if gotU[i] != us[i] {
			t.Errorf("uint col[%d] = %d, want %d", i, gotU[i], us[i])
		}
	}
	if _, err := Uint32Col(ub, 2); err == nil {
		t.Error("oversized uint column accepted")
	}
}

func TestStringTable(t *testing.T) {
	strs := []string{"", "a", "bb", "ccc", "a"} // duplicates and empties are the caller's business
	b := AppendStringTable(nil, strs)
	b = append(b, 0x42) // table parsing must return the remainder
	got, rest, err := ParseStringTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0] != 0x42 {
		t.Fatalf("remainder = %v", rest)
	}
	if len(got) != len(strs) {
		t.Fatalf("%d strings, want %d", len(got), len(strs))
	}
	for i := range strs {
		if got[i] != strs[i] {
			t.Errorf("entry %d = %q, want %q", i, got[i], strs[i])
		}
	}
}

func TestStringTableNegativePaths(t *testing.T) {
	valid := AppendStringTable(nil, []string{"alpha", "beta"})
	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"empty", nil, "count"},
		{"count overruns input", AppendUvarint(nil, 1<<40), "declares"},
		{"truncated offsets", valid[:3], "truncated string table offsets"},
		{"truncated blob", valid[:len(valid)-2], "truncated string table blob"},
		{
			"descending offsets",
			func() []byte {
				b := append([]byte(nil), valid...)
				// offsets start after the count varint (1 byte): swap the two
				// uint32 ends so they descend.
				copy(b[1:5], valid[5:9])
				copy(b[5:9], valid[1:5])
				return b
			}(),
			"not ascending",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ParseStringTable(tc.data)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
