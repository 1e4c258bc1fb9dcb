package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/match"
	"repro/internal/shard"
)

// Pipeline persistence: the offline build (segmentation, grouping,
// indexing) is written once and reloaded by serving processes, mirroring
// the paper's offline/online split. Only the intention (MR) methods are
// persistable — FullText rebuilds in milliseconds and LDA's model is
// cheaper to retrain than to version.
//
// A loaded pipeline serves Related queries and accepts Add; it does not
// retain the prepared documents, so Doc returns nil for pre-load ids.

// WriteTo serializes a built MR pipeline: a small gob header (method,
// stats) followed by the matcher in the compact section layout. It
// implements io.WriterTo. Sharded pipelines persist as a directory
// instead — see WriteShardDir.
func (p *Pipeline) WriteTo(w io.Writer) (int64, error) {
	return p.writeTo(w, (*match.MR).WriteTo)
}

// WriteLegacyTo serializes the pipeline with the matcher in the legacy
// gob layout — byte-compatible with what WriteTo produced before the
// compact format existed. ReadPipeline loads both (it sniffs the
// matcher's magic). Retained for migration tooling and the old-vs-new
// equivalence checks; new snapshots should use WriteTo.
func (p *Pipeline) WriteLegacyTo(w io.Writer) (int64, error) {
	return p.writeTo(w, (*match.MR).WriteGobTo)
}

func (p *Pipeline) writeTo(w io.Writer, writeMR func(*match.MR, io.Writer) (int64, error)) (int64, error) {
	var mr *match.MR
	switch m := p.matcher.(type) {
	case *match.MR:
		mr = m
	case *shard.Group:
		return 0, fmt.Errorf("core: sharded pipelines persist as a shard directory; use WriteShardDir")
	default:
		return 0, fmt.Errorf("core: %s pipelines are not persistable", p.matcher.Name())
	}
	cw := &countWriter{w: w}
	enc := gob.NewEncoder(cw)
	if err := enc.Encode(p.cfg.Method); err != nil {
		return cw.n, err
	}
	if err := enc.Encode(p.stats); err != nil {
		return cw.n, err
	}
	if _, err := writeMR(mr, cw); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadPipeline deserializes a pipeline written with WriteTo.
//
// The stream holds two gob values (header) followed by the matcher's own
// gob stream. A gob decoder over-reads only when its source lacks
// io.ByteReader (it then wraps the source in a bufio.Reader), so both
// decoding stages share one exactReader and each consumes precisely its
// own bytes.
func ReadPipeline(r io.Reader) (*Pipeline, error) {
	er := &exactReader{r: r}
	dec := gob.NewDecoder(er)
	var method Method
	if err := dec.Decode(&method); err != nil {
		return nil, fmt.Errorf("core: decoding pipeline header: %w", err)
	}
	var stats Stats
	if err := dec.Decode(&stats); err != nil {
		return nil, err
	}
	mr, err := match.ReadMR(er)
	if err != nil {
		return nil, err
	}
	return loaded(Config{Method: method}, mr, stats), nil
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
	method := IntentIntentMR
	for m, name := range methodNames {
		if name == g.Name() {
			method = Method(m)
		}
	}
	bs := g.Stats()
	return loaded(Config{Method: method, Shards: g.NumShards()}, g, Stats{
		NumDocs:     g.NumDocs(),
		NumSegments: bs.NumSegments,
		NumClusters: bs.NumClusters,
	}), nil
}

// exactReader adapts an io.Reader into an io.ByteReader so gob decoders
// sharing the stream never buffer past their own values. Wrap slow sources
// in a bufio.Reader before handing them to ReadPipeline.
type exactReader struct {
	r   io.Reader
	one [1]byte
}

func (e *exactReader) Read(p []byte) (int, error) { return e.r.Read(p) }

func (e *exactReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(e.r, e.one[:]); err != nil {
		return 0, err
	}
	return e.one[0], nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
