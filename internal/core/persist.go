package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/match"
	"repro/internal/secfile"
	"repro/internal/shard"
)

// Pipeline persistence: the offline build (segmentation, grouping,
// indexing) is written once and reloaded by serving processes, mirroring
// the paper's offline/online split.
//
// An unsharded pipeline is one secfile container — magic "RFCP",
// version 1 — of two checksummed sections:
//
//	"head"  JSON header: the matcher's name (its Table 4 label) and the
//	        full Stats (durations in nanoseconds).
//	"mtch"  the matcher's own compact file (magic "RFCM", see
//	        match/compact.go), embedded verbatim the way that file
//	        embeds its cluster indices.
//
// A loaded pipeline serves Related queries and accepts Add; it does not
// retain the prepared documents, so Doc returns nil for pre-load ids.

const (
	pipelineMagic   = "RFCP"
	pipelineVersion = 1
)

// pipelineHead is the JSON "head" section.
type pipelineHead struct {
	Method string `json:"method"`
	Stats  Stats  `json:"stats"`
}

// WriteTo serializes a built pipeline as one RFCP container. It
// implements io.WriterTo. Sharded pipelines persist as a directory
// instead — see WriteShardDir.
func (p *Pipeline) WriteTo(w io.Writer) (int64, error) {
	mr, ok := p.matcher.(*match.MR)
	if !ok {
		return 0, fmt.Errorf("core: sharded pipelines persist as a shard directory; use WriteShardDir")
	}
	// Add commits to the matcher and counts the document under the write
	// lock, so under the read lock the header and the matcher describe
	// the same collection.
	var mtch bytes.Buffer
	p.mu.RLock()
	stats := p.stats
	_, err := mr.WriteTo(&mtch)
	p.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	head, err := json.Marshal(pipelineHead{Method: mr.Name(), Stats: stats})
	if err != nil {
		return 0, fmt.Errorf("core: encoding pipeline header: %w", err)
	}
	return secfile.Encode(w, pipelineMagic, pipelineVersion, []secfile.Section{
		{Tag: "head", Data: head},
		{Tag: "mtch", Data: mtch.Bytes()},
	})
}

// ReadPipeline deserializes a pipeline written with WriteTo. The source
// is consumed to EOF. Beyond what the container and the matcher decoder
// check, the header must describe the matcher beside it: the matcher's
// name, the matcher's document count.
func ReadPipeline(r io.Reader) (*Pipeline, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading pipeline: %w", err)
	}
	f, err := secfile.Decode(data, pipelineMagic, pipelineVersion)
	if err != nil {
		return nil, err
	}
	headSec, err := f.Section("head")
	if err != nil {
		return nil, err
	}
	var head pipelineHead
	if err := json.Unmarshal(headSec, &head); err != nil {
		return nil, fmt.Errorf("core: decoding pipeline header: %w", err)
	}
	mtch, err := f.Section("mtch")
	if err != nil {
		return nil, err
	}
	mr, err := match.ReadMR(mtch, nil)
	if err != nil {
		return nil, err
	}
	if mr.Name() != head.Method {
		return nil, fmt.Errorf("core: pipeline header names method %q, matcher is %q", head.Method, mr.Name())
	}
	if head.Stats.NumDocs != mr.NumDocs() {
		return nil, fmt.Errorf("core: pipeline header counts %d documents, matcher holds %d", head.Stats.NumDocs, mr.NumDocs())
	}
	return loaded(mr, head.Stats), nil
}

// loaded assembles a pipeline restored from a snapshot, the counterpart
// of Build's tail: it publishes the collection size on the core.docs
// gauge exactly as Build does, so a restored server's /metrics does not
// report an empty collection until its first Add.
func loaded(m segMatcher, stats Stats) *Pipeline {
	gaugeDocs.Set(int64(stats.NumDocs))
	return &Pipeline{
		matcher:   m,
		epochBase: 1, // loading is an epoch advance; see Pipeline.Epoch
		stats:     stats,
	}
}

// WriteShardDir persists a sharded pipeline into dir: the shard
// manifest (shard count, routing seed, topology) plus one file per
// shard in the plain MR codec (see internal/shard). It errors for
// unsharded pipelines, which persist as a single stream via WriteTo.
func (p *Pipeline) WriteShardDir(dir string) error {
	g, ok := p.matcher.(*shard.Group)
	if !ok {
		return fmt.Errorf("core: %s pipeline is not sharded; use WriteTo", p.matcher.Name())
	}
	return g.WriteDir(dir)
}

// ReadShardDir loads a sharded pipeline from a directory written by
// WriteShardDir. Like ReadPipeline, the loaded pipeline serves Related
// and accepts Add but does not retain the prepared documents, so Doc
// returns nil for pre-load ids. The method is the persisted matcher
// name. Each shard's own statistics count only the adds it took, so the
// segment count is summed from the per-document counts.
func ReadShardDir(dir string) (*Pipeline, error) {
	g, err := shard.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	before, _ := g.SegmentCounts()
	segs := 0
	for _, c := range before {
		segs += c
	}
	return loaded(g, Stats{NumDocs: g.NumDocs(), NumSegments: segs, NumClusters: g.Stats().NumClusters}), nil
}
