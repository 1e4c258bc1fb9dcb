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
// the paper's offline/online split. Only the intention (MR) methods are
// persistable — FullText rebuilds in milliseconds and LDA's model is
// cheaper to retrain than to version.
//
// An unsharded pipeline is one secfile container — magic "RFCP",
// version 1 — of two checksummed sections:
//
//	"head"  JSON header: the method by its Table 4 name and the full
//	        Stats (durations in nanoseconds).
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

// mrMethod resolves a Table 4 name to the persistable method carrying it.
func mrMethod(name string) (Method, bool) {
	for _, m := range []Method{IntentIntentMR, ContentMR, SentIntentMR} {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// WriteTo serializes a built MR pipeline as one RFCP container. It
// implements io.WriterTo. Sharded pipelines persist as a directory
// instead — see WriteShardDir.
func (p *Pipeline) WriteTo(w io.Writer) (int64, error) {
	var mr *match.MR
	switch m := p.matcher.(type) {
	case *match.MR:
		mr = m
	case *shard.Group:
		return 0, fmt.Errorf("core: sharded pipelines persist as a shard directory; use WriteShardDir")
	default:
		return 0, fmt.Errorf("core: %s pipelines are not persistable", p.matcher.Name())
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
	head, err := json.Marshal(pipelineHead{Method: p.cfg.Method.String(), Stats: stats})
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
// check, the header must describe the matcher beside it: a persistable
// method, the matcher's name, the matcher's document count.
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
	method, ok := mrMethod(head.Method)
	if !ok {
		return nil, fmt.Errorf("core: pipeline header names method %q, which is not persistable", head.Method)
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
	return loaded(Config{Method: method}, mr, head.Stats), nil
}

// loaded assembles a pipeline restored from a snapshot, the counterpart
// of Build's tail: it publishes the collection size on the core.docs
// gauge exactly as Build does, so a restored server's /metrics does not
// report an empty collection until its first Add.
func loaded(cfg Config, m segMatcher, stats Stats) *Pipeline {
	gaugeDocs.Set(int64(stats.NumDocs))
	return &Pipeline{
		cfg:       cfg,
		matcher:   m,
		seg:       m,
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
// returns nil for pre-load ids. The method is recovered from the
// persisted matcher name.
func ReadShardDir(dir string) (*Pipeline, error) {
	g, err := shard.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	method, _ := mrMethod(g.Name()) // a custom matcher name loads as IntentIntentMR
	bs := g.Stats()
	return loaded(Config{Method: method, Shards: g.NumShards()}, g, Stats{
		NumDocs:     g.NumDocs(),
		NumSegments: bs.NumSegments,
		NumClusters: bs.NumClusters,
	}), nil
}
