package match

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
	"repro/internal/variant"
)

func TestMRPersistRoundTrip(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 120, 51)
	mr := NewMR("IntentIntent-MR", tc.docs, MRConfig{Seed: 3})

	var buf bytes.Buffer
	n, err := mr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	loaded, err := ReadMR(buf.Bytes(), nil)
	if err != nil {
		t.Fatalf("ReadMR: %v", err)
	}
	if loaded.Name() != mr.Name() {
		t.Errorf("name %q != %q", loaded.Name(), mr.Name())
	}
	if loaded.NumClusters() != mr.NumClusters() || loaded.NumDocs() != mr.NumDocs() {
		t.Fatal("shape mismatch after round trip")
	}
	// Segment accounting round-trips.
	b1, a1 := mr.SegmentCounts()
	b2, a2 := loaded.SegmentCounts()
	for i := range b1 {
		if b1[i] != b2[i] || a1[i] != a2[i] {
			t.Fatal("segment counts differ after round trip")
		}
	}
	if loaded.Stats() != mr.Stats() {
		t.Error("stats differ after round trip")
	}
}

func TestLoadedMRSupportsAdd(t *testing.T) {
	tc := buildCorpus(t, forum.Travel, 80, 52)
	mr := NewMR("m", tc.docs, MRConfig{})
	var buf bytes.Buffer
	if _, err := mr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadMR(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	extra := forum.GeneratePost(forum.Travel, 80, 52)
	id := loaded.Add(segment.NewDoc(extra.Text))
	if id != 80 {
		t.Fatalf("Add after load returned %d", id)
	}
	if res := loaded.Match(id, 5); len(res) == 0 {
		t.Error("added doc on loaded matcher matches nothing")
	}
}

// TestWriteToRefusesStages: a snapshot always loads as the paper's method,
// so a matcher built with any stage of its own is not written.
func TestWriteToRefusesStages(t *testing.T) {
	tc := buildCorpus(t, forum.TechSupport, 40, 53)
	for name, cfg := range map[string]MRConfig{
		"strategy":  {Strategy: variant.Sentences{}},
		"vectorize": {Vectorize: variant.FullVectors},
		"group":     {Group: GroupKMeans(6)},
	} {
		var buf bytes.Buffer
		if _, err := NewMR(name, tc.docs, cfg).WriteTo(&buf); err == nil || !strings.Contains(err.Error(), "own stages") {
			t.Errorf("%s: WriteTo = %v, want a refusal naming the stages", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: a refused write wrote %d bytes", name, buf.Len())
		}
	}
}

func TestReadMRGarbage(t *testing.T) {
	// Anything that is not an RFCM container — a file an earlier build
	// wrote in another encoding included — is named as such.
	if _, err := ReadMR([]byte("not a matcher file"), nil); err == nil {
		t.Fatal("garbage input should fail")
	} else if !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("error %q does not name the magic", err)
	}
	if _, err := ReadMR(nil, nil); err == nil {
		t.Fatal("empty input should fail")
	}
}

// TestWriteToFailingWriter: a failed write reports the error and leaves
// the matcher usable.
func TestWriteToFailingWriter(t *testing.T) {
	mr := smallMatcher(t)
	r, w := io.Pipe()
	r.Close()
	if _, err := mr.WriteTo(w); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("WriteTo into a closed pipe: %v", err)
	}
	if _, err := mr.WriteTo(&bytes.Buffer{}); err != nil {
		t.Fatalf("WriteTo after a failed write: %v", err)
	}
}
