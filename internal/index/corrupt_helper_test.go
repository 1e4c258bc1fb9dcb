package index

import (
	"bytes"
	"testing"

	"repro/internal/secfile"
)

// indexSectionOrder is the fixed table order appendCompact writes.
var indexSectionOrder = []string{"term", "post", "unit", "stat"}

func appendUvarint(b []byte, v uint64) []byte { return secfile.AppendUvarint(b, v) }

// rebuildSections re-encodes a valid compact index file with the given
// per-section edit applied — the surgical-corruption helper behind the
// negative-path matrix (appendCompact refuses to write these defects
// itself, so tests splice them in at the container level).
func rebuildSections(t *testing.T, valid []byte, edit func(secs []secfile.Section) []secfile.Section) []byte {
	t.Helper()
	f, err := secfile.Decode(valid, CompactIndexMagic, compactIndexVersion)
	if err != nil {
		t.Fatalf("fixture snapshot does not decode: %v", err)
	}
	secs := make([]secfile.Section, 0, len(indexSectionOrder))
	for _, tag := range indexSectionOrder {
		data, err := f.Section(tag)
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, secfile.Section{Tag: tag, Data: data})
	}
	var buf bytes.Buffer
	if _, err := secfile.Encode(&buf, CompactIndexMagic, compactIndexVersion, edit(secs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func replaceSection(t *testing.T, valid []byte, tag string, payload []byte) []byte {
	t.Helper()
	return rebuildSections(t, valid, func(secs []secfile.Section) []secfile.Section {
		for i := range secs {
			if secs[i].Tag == tag {
				secs[i].Data = payload
			}
		}
		return secs
	})
}

func dropSection(t *testing.T, valid []byte, tag string) []byte {
	t.Helper()
	return rebuildSections(t, valid, func(secs []secfile.Section) []secfile.Section {
		out := secs[:0]
		for _, s := range secs {
			if s.Tag != tag {
				out = append(out, s)
			}
		}
		return out
	})
}
