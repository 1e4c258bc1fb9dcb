package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/match"
	"repro/internal/secfile"
	"repro/internal/shard"
)

// Pipeline persistence: the offline build (segmentation, grouping,
// indexing) is written once and reloaded by serving processes, mirroring
// the paper's offline/online split.
//
// A pipeline of any shard count is one secfile container — magic
// "RFCP", version 1 — of checksummed sections:
//
//	"head"  JSON header: the matcher's name (its Table 4 label), the full
//	        Stats (durations in nanoseconds) and, sharded only, the shard
//	        count and routing seed.
//	"mtch"  the matcher's file (magic "RFCM", see match/compact.go),
//	        embedded verbatim as that file embeds its cluster indices —
//	        or one per shard, "s000", "s001", … (see internal/shard).
//
// A loaded pipeline serves Related queries and accepts Add, as a built
// one does.

const (
	pipelineMagic   = "RFCP"
	pipelineVersion = 1
	maxShards       = 1000            // the shards the tags s000…s999 name
	shardDirFile    = "pipeline.rfcp" // the snapshot in a WriteShardDir directory
)

// pipelineHead is the JSON "head" section.
type pipelineHead struct {
	Method    string `json:"method"`
	Stats     Stats  `json:"stats"`
	Shards    int    `json:"shards,omitempty"`
	RouteSeed uint64 `json:"route_seed,omitempty"`
}

// matcherTags names the matcher sections of a pipeline of shards shards
// (0: unsharded).
func matcherTags(shards int) []string {
	if shards == 0 {
		return []string{"mtch"}
	}
	tags := make([]string, shards)
	for s := range tags {
		tags[s] = fmt.Sprintf("s%03d", s)
	}
	return tags
}

// WriteTo serializes a built pipeline, sharded or not, as one RFCP
// container. It implements io.WriterTo.
func (p *Pipeline) WriteTo(w io.Writer) (int64, error) {
	head := pipelineHead{Method: p.matcher.Name()}
	var mrs []*match.MR
	switch m := p.matcher.(type) {
	case *match.MR:
		mrs = []*match.MR{m}
	case *shard.Group:
		head.Shards, head.RouteSeed = m.NumShards(), m.Seed()
		for s := range head.Shards {
			mrs = append(mrs, m.ShardMR(s))
		}
	}
	if head.Shards > maxShards {
		return 0, fmt.Errorf("core: a snapshot names at most %d shards, the pipeline has %d", maxShards, head.Shards)
	}
	// Add commits to the matcher and counts the document under the write
	// lock, so under the read lock the header and the matcher files
	// describe the same collection.
	secs := []secfile.Section{{Tag: "head"}}
	p.mu.RLock()
	head.Stats = p.stats
	for i, tag := range matcherTags(head.Shards) {
		var buf bytes.Buffer
		if _, err := mrs[i].WriteTo(&buf); err != nil {
			p.mu.RUnlock()
			return 0, err
		}
		secs = append(secs, secfile.Section{Tag: tag, Data: buf.Bytes()})
	}
	p.mu.RUnlock()
	headJSON, err := json.Marshal(head)
	if err != nil {
		return 0, fmt.Errorf("core: encoding pipeline header: %w", err)
	}
	secs[0].Data = headJSON
	return secfile.Encode(w, pipelineMagic, pipelineVersion, secs)
}

// decodeSnapshot splits a snapshot into its header and its matcher
// files, which the container has checksummed.
func decodeSnapshot(data []byte) (head pipelineHead, files [][]byte, err error) {
	f, err := secfile.Decode(data, pipelineMagic, pipelineVersion)
	if err != nil {
		return head, nil, err
	}
	headSec, err := f.Section("head")
	if err != nil {
		return head, nil, err
	}
	if err := json.Unmarshal(headSec, &head); err != nil {
		return head, nil, fmt.Errorf("core: decoding pipeline header: %w", err)
	}
	if head.Shards < 0 || head.Shards > maxShards {
		return head, nil, fmt.Errorf("core: pipeline header declares %d shards (0 to %d)", head.Shards, maxShards)
	}
	for _, tag := range matcherTags(head.Shards) {
		sec, err := f.Section(tag)
		if err != nil {
			return head, nil, err
		}
		files = append(files, sec)
	}
	return head, files, nil
}

// ReadPipeline deserializes a pipeline written with WriteTo. The source
// is consumed to EOF. Beyond what the container and the matcher decoders
// check, the header must describe the matchers beside it: their name,
// their document count and, sharded, their routing.
func ReadPipeline(r io.Reader) (*Pipeline, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading pipeline: %w", err)
	}
	return decodePipeline(data)
}

func decodePipeline(data []byte) (*Pipeline, error) {
	head, files, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	var m segMatcher
	if head.Shards == 0 {
		mr, err := match.ReadMR(files[0], nil)
		if err != nil {
			return nil, err
		}
		if head.Stats.NumDocs != mr.NumDocs() {
			return nil, fmt.Errorf("core: pipeline header counts %d documents, matcher holds %d", head.Stats.NumDocs, mr.NumDocs())
		}
		m = mr
	} else if m, err = shard.Decode(files, head.RouteSeed, head.Stats.NumDocs, head.Stats.NumClusters); err != nil {
		return nil, err
	}
	if m.Name() != head.Method {
		return nil, fmt.Errorf("core: pipeline header names method %q, matcher is %q", head.Method, m.Name())
	}
	return loaded(m, head.Stats), nil
}

// Part is what a fleet host serves of a snapshot: the shards it owns,
// and what the header says of the whole collection.
type Part struct {
	Method         string
	Shards         int // in the collection; an unsharded snapshot is 1
	RouteSeed      uint64
	Docs, Clusters int
	Owned          map[int]*match.MR
	Digest         uint64 // FNV-64a of the snapshot file's bytes
}

// ReadPart reads the shards named in own (every shard when own is
// empty) from the snapshot at path, attached to statistics pools that
// cover the whole collection (see shard.DecodeShards). An unsharded
// snapshot reads as the one shard of a one-shard collection.
func ReadPart(path string, own []int) (*Part, error) {
	data, err := readFile(path)
	if err != nil {
		return nil, err
	}
	head, files, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	shards, err := shard.DecodeShards(files, head.RouteSeed, head.Stats.NumDocs, head.Stats.NumClusters, own)
	if err != nil {
		return nil, err
	}
	for s, mr := range shards {
		if mr.Name() != head.Method {
			return nil, fmt.Errorf("core: pipeline header names method %q, shard %d is %q", head.Method, s, mr.Name())
		}
	}
	sum := fnv.New64a()
	sum.Write(data)
	return &Part{Method: head.Method, Shards: len(files), RouteSeed: head.RouteSeed,
		Docs: head.Stats.NumDocs, Clusters: head.Stats.NumClusters, Owned: shards, Digest: sum.Sum64()}, nil
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

// Save writes WriteTo's bytes to path so that path holds its old bytes
// or the whole new snapshot whenever the process or the machine stops:
// they go to a temporary file beside path, synced and renamed over path
// — the one commit point — before the directory is synced. The temporary
// file is removed on any failure.
func (p *Pipeline) Save(path string) error {
	return save(path, func(w io.Writer) error { _, err := p.WriteTo(w); return err })
}

func save(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("core: saving %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			err = fmt.Errorf("core: saving %s: %w", path, err)
		}
	}()
	if err = f.Chmod(0o644); err != nil { // CreateTemp's 0600 would hide the snapshot from a serving user
		return err
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load reads the snapshot at path (Save's or WriteTo's output, of any
// shard count).
func Load(path string) (*Pipeline, error) {
	data, err := readFile(path)
	if err != nil {
		return nil, err
	}
	return decodePipeline(data)
}

// readFile reads a snapshot file. Where the path, or the directory it
// names a file in, holds a manifest.json — the layout sharded pipelines
// were once saved in, beside one shard-NNNN.mr file per shard — the
// failure says so.
func readFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		for _, dir := range []string{path, filepath.Dir(path)} {
			if _, serr := os.Stat(filepath.Join(dir, "manifest.json")); serr == nil {
				return nil, fmt.Errorf("core: %s is a shard directory (manifest.json beside shard-NNNN.mr files), a layout this build does not read; rebuild the pipeline and save it as one snapshot file", dir)
			}
		}
	}
	return data, err
}

// WriteShardDir saves the pipeline (see Save) at a fixed name inside
// dir, which is created if needed.
func (p *Pipeline) WriteShardDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: creating %s: %w", dir, err)
	}
	return p.Save(filepath.Join(dir, shardDirFile))
}

// ReadShardDir loads the snapshot WriteShardDir saved in dir.
func ReadShardDir(dir string) (*Pipeline, error) { return Load(filepath.Join(dir, shardDirFile)) }
