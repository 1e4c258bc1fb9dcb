package secfile

import (
	"bytes"
	"testing"
)

// FuzzDecode drives arbitrary bytes through the section-container
// decoder: whatever the input, Decode must either return a descriptive
// error or a File whose every table entry was offset-, length-, and
// checksum-validated — never panic, never over-read. Decoded files are
// closed under re-encoding: round-tripping the recovered sections must
// reproduce the input bytes exactly (the container holds no
// unaccounted-for bytes a rewrite could drop).
func FuzzDecode(f *testing.F) {
	var seed bytes.Buffer
	_, _ = Encode(&seed, "FUZZ", 1, []Section{
		{Tag: "aaaa", Data: []byte("payload one")},
		{Tag: "bbbb", Data: nil},
		{Tag: "cccc", Data: bytes.Repeat([]byte{7}, 64)},
	})
	f.Add(seed.Bytes())
	var empty bytes.Buffer
	_, _ = Encode(&empty, "FUZZ", 1, nil)
	f.Add(empty.Bytes())
	f.Add([]byte("FUZZ"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data, "FUZZ", 1)
		if err != nil {
			return
		}
		// A file that decodes must re-encode to the identical bytes: walk
		// the table order from the raw header, which Decode validated.
		var secs []Section
		n := int(uint16(data[6]) | uint16(data[7])<<8)
		for i := 0; i < n; i++ {
			tag := string(data[headerSize+entrySize*i : headerSize+entrySize*i+4])
			payload, err := decoded.Section(tag)
			if err != nil {
				t.Fatalf("validated section %q missing: %v", tag, err)
			}
			secs = append(secs, Section{Tag: tag, Data: payload})
		}
		var out bytes.Buffer
		if _, err := Encode(&out, "FUZZ", decoded.Version, secs); err != nil {
			t.Fatalf("re-encoding a valid file: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("re-encode differs: %d bytes in, %d out", len(data), out.Len())
		}
	})
}

// FuzzParseStringTable exercises the interned-dictionary parser the
// term sections of both compact codecs rely on.
func FuzzParseStringTable(f *testing.F) {
	f.Add(AppendStringTable(nil, []string{"alpha", "beta", "gamma"}))
	f.Add(AppendStringTable[string](nil, nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		strs, rest, err := ParseStringTable(data)
		if err != nil {
			return
		}
		round := AppendStringTable(nil, strs)
		if !bytes.Equal(round, data[:len(data)-len(rest)]) {
			t.Fatalf("string table round trip differs for %d entries", len(strs))
		}
	})
}
