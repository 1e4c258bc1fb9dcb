package match

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
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
	// The strategy is configuration; a loaded matcher gets the default and
	// can be overridden.
	loaded.SetStrategy(segment.Greedy{})
	extra := forum.GeneratePost(forum.Travel, 80, 52)
	id := loaded.Add(segment.NewDoc(extra.Text))
	if id != 80 {
		t.Fatalf("Add after load returned %d", id)
	}
	if res := loaded.Match(id, 5); len(res) == 0 {
		t.Error("added doc on loaded matcher matches nothing")
	}
}

func TestReadMRReconstructsStrategy(t *testing.T) {
	// A loaded matcher must segment incrementally added posts with the
	// strategy its build used, not silently fall back to Greedy.
	cases := []struct {
		name string
		cfg  MRConfig
		want segment.Strategy
	}{
		{"IntentIntent-MR", MRConfig{}, segment.Greedy{}},
		{"SentIntent-MR", MRConfig{Strategy: segment.Sentences{}}, segment.Sentences{}},
		{"Content-MR", MRConfig{Strategy: segment.TextTiling{}, ContentVectors: true}, segment.TextTiling{}},
	}
	tc := buildCorpus(t, forum.TechSupport, 40, 53)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mr := NewMR(c.name, tc.docs, c.cfg)
			var buf bytes.Buffer
			if _, err := mr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadMR(buf.Bytes(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := loaded.cfg.Strategy; got != c.want {
				t.Errorf("loaded strategy = %T, want %T", got, c.want)
			}
			// SetStrategy still overrides.
			loaded.SetStrategy(segment.Greedy{})
			if got := loaded.cfg.Strategy; got != (segment.Greedy{}) {
				t.Errorf("SetStrategy override ignored, strategy = %T", got)
			}
		})
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
