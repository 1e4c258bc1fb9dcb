package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/forum"
	"repro/internal/secfile"
)

func TestPipelinePersistRoundTrip(t *testing.T) {
	texts, _ := corpusTexts(t, forum.TechSupport, 120, 61)
	p, err := Build(texts, Config{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	loaded, err := ReadPipeline(&buf)
	if err != nil {
		t.Fatalf("ReadPipeline: %v", err)
	}
	if loaded.Method() != p.Method() {
		t.Errorf("method %q != %q", loaded.Method(), p.Method())
	}
	if loaded.Stats() != p.Stats() {
		t.Error("stats differ after round trip")
	}
	if loaded.NumClusters() != p.NumClusters() {
		t.Error("cluster count differs")
	}
	// A loaded pipeline keeps no prepared documents.
	if loaded.Doc(0) != nil {
		t.Error("loaded pipeline should not retain documents")
	}
	// But it accepts new posts.
	id, err := loaded.Add("My printer stopped printing. I replaced the toner. What should I check?")
	if err != nil {
		t.Fatalf("Add on loaded pipeline: %v", err)
	}
	if id != 120 {
		t.Errorf("Add returned id %d, want 120", id)
	}
}

// smallSnapshot builds a small pipeline and returns it with its
// snapshot bytes.
func smallSnapshot(t testing.TB) (*Pipeline, []byte) {
	t.Helper()
	texts, _ := corpusTexts(t, forum.TechSupport, 30, 63)
	p, err := Build(texts, Config{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return p, buf.Bytes()
}

// snapshotSections splits a valid snapshot into its two payloads.
func snapshotSections(t testing.TB, valid []byte) (head, mtch []byte) {
	t.Helper()
	f, err := secfile.Decode(valid, pipelineMagic, pipelineVersion)
	if err != nil {
		t.Fatal(err)
	}
	head, _ = f.Section("head")
	mtch, _ = f.Section("mtch")
	return head, mtch
}

// withHead re-encodes a valid snapshot around an edited header, so the
// container and its checksums are pristine and only ReadPipeline's own
// checks can object.
func withHead(t testing.TB, valid []byte, edit func(h *pipelineHead)) []byte {
	t.Helper()
	head, mtch := snapshotSections(t, valid)
	var h pipelineHead
	if err := json.Unmarshal(head, &h); err != nil {
		t.Fatal(err)
	}
	edit(&h)
	head, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return encodeSections(t, secfile.Section{Tag: "head", Data: head}, secfile.Section{Tag: "mtch", Data: mtch})
}

func encodeSections(t testing.TB, secs ...secfile.Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := secfile.Encode(&buf, pipelineMagic, pipelineVersion, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadPipelineGarbage covers what ReadPipeline checks itself, on
// top of the container's and the matcher decoder's own matrices: the
// header must be readable and must describe the matcher beside it.
// Files of any other kind — which is what a snapshot written before the
// RFCP container existed is — are refused by their magic.
func TestReadPipelineGarbage(t *testing.T) {
	_, valid := smallSnapshot(t)
	head, mtch := snapshotSections(t, valid)
	for _, tc := range []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"not a pipeline file", []byte("\x0c\xff\x81\x03\x01\x01\x06Method, say"), "bad magic"},
		{"a bare matcher file", mtch, `bad magic "RFCM" (want "RFCP")`},
		{"empty", nil, "shorter than the 8-byte header"},
		{"truncated", valid[:len(valid)/2], "truncated"},
		{"header not JSON", encodeSections(t,
			secfile.Section{Tag: "head", Data: []byte("{")}, secfile.Section{Tag: "mtch", Data: mtch}),
			"decoding pipeline header"},
		{"no matcher section", encodeSections(t, secfile.Section{Tag: "head", Data: head}), `missing section "mtch"`},
		{"no header section", encodeSections(t, secfile.Section{Tag: "mtch", Data: mtch}), `missing section "head"`},
		{"matcher section damaged", encodeSections(t,
			secfile.Section{Tag: "head", Data: head}, secfile.Section{Tag: "mtch", Data: mtch[:len(mtch)-9]}),
			"truncated"},
		{"method is not the matcher's", withHead(t, valid, func(h *pipelineHead) { h.Method = "Content-MR" }),
			`matcher is "IntentIntent-MR"`},
		{"document count is not the matcher's", withHead(t, valid, func(h *pipelineHead) { h.Stats.NumDocs-- }),
			"header counts 29 documents, matcher holds 30"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPipeline(bytes.NewReader(tc.data)); err == nil {
				t.Fatal("loaded without error")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// failAfter is a writer that accepts n bytes and then fails.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteToFailingWriter fails the write in the container header, in
// the head section and in the matcher section: the error comes back
// with the count of bytes that did go out.
func TestWriteToFailingWriter(t *testing.T) {
	p, valid := smallSnapshot(t)
	for _, n := range []int{0, 60, len(valid) - 1} {
		got, err := p.WriteTo(&failAfter{n: n})
		if !errors.Is(err, errDiskFull) {
			t.Errorf("failing after %d bytes: error %v", n, err)
		}
		if got != int64(n) {
			t.Errorf("failing after %d bytes: WriteTo reported %d", n, got)
		}
	}
}
