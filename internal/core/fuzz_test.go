package core

import (
	"bytes"
	"testing"
)

// FuzzReadPipeline drives arbitrary bytes through the snapshot loader,
// the trust boundary of `serve -load`: container, header, embedded
// matcher, embedded cluster indices. Whatever the input, the loader
// returns an error or a pipeline that serves — Related answers without
// panicking for every id the header admits.
func FuzzReadPipeline(f *testing.F) {
	_, valid := smallSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])
	f.Add(withHead(f, valid, func(h *pipelineHead) { h.Stats.NumDocs++ }))
	f.Add([]byte(pipelineMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPipeline(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := p.Stats().NumDocs
		if n > 0 && !p.HasDoc(n-1) {
			t.Fatalf("loaded %d documents but HasDoc(%d) is false", n, n-1)
		}
		for id := 0; id < n; id++ {
			for _, r := range p.Related(id, 3) {
				if r.DocID < 0 || r.DocID >= n || r.DocID == id {
					t.Fatalf("Related(%d) returned doc %d of %d", id, r.DocID, n)
				}
			}
		}
	})
}
