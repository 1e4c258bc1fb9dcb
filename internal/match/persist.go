package match

import (
	"io"

	"repro/internal/segment"
)

// This file persists a built MR matcher. The paper splits the system into
// an offline phase (segmentation, grouping, indexing) and an online phase
// (top-k matching); persistence lets the offline result be built once,
// written to disk, and served by separate processes.
//
// WriteTo emits the compact section layout of compact.go (magic "RFCM")
// and ReadMR reads it back, rejecting trailing bytes after a valid file
// and validating the cross-table invariants the query path depends on.
//
// The segmentation strategy itself is configuration, not state: ReadMR
// reconstructs it from the persisted ContentVectors flag and matcher name
// (TextTiling for Content-MR, Sentences for SentIntent-MR, Greedy
// otherwise), so a loaded matcher segments incrementally added posts the
// same way the offline build did. SetStrategy remains the override for
// custom strategies. Everything the online phase needs — the per-cluster
// indices, unit ownership, per-document segment terms, centroids, and
// statistics — round-trips exactly.

// mrConfigSnapshot carries the serializable MRConfig fields (the Strategy
// interface is reconstructed from the matcher name on load): the
// config half of the compact layout's JSON "meta" section.
type mrConfigSnapshot struct {
	ContentVectors bool
	ContentK       int
	Eps            float64
	MinPts         int
	SampleSize     int
	KeepNoise      bool
	Grouper        int
	KMeansK        int
	FullVectors    bool
	NFactor        int
	ScoreThreshold float64
	NormalizeLists bool
	Seed           int64
}

// snapshot extracts the serializable configuration fields.
func (c MRConfig) snapshot() mrConfigSnapshot {
	return mrConfigSnapshot{
		ContentVectors: c.ContentVectors,
		ContentK:       c.ContentK,
		Eps:            c.Eps,
		MinPts:         c.MinPts,
		SampleSize:     c.SampleSize,
		KeepNoise:      c.KeepNoise,
		Grouper:        int(c.Grouper),
		KMeansK:        c.KMeansK,
		FullVectors:    c.FullVectors,
		NFactor:        c.NFactor,
		ScoreThreshold: c.ScoreThreshold,
		NormalizeLists: c.NormalizeLists,
		Seed:           c.Seed,
	}
}

// restore rebuilds a defaults-applied MRConfig, reconstructing the
// build's segmentation strategy from the matcher name (see strategyFor).
func (s mrConfigSnapshot) restore(name string) MRConfig {
	return MRConfig{
		Strategy:       strategyFor(name, s.ContentVectors),
		ContentVectors: s.ContentVectors,
		ContentK:       s.ContentK,
		Eps:            s.Eps,
		MinPts:         s.MinPts,
		SampleSize:     s.SampleSize,
		KeepNoise:      s.KeepNoise,
		Grouper:        Grouping(s.Grouper),
		KMeansK:        s.KMeansK,
		FullVectors:    s.FullVectors,
		NFactor:        s.NFactor,
		ScoreThreshold: s.ScoreThreshold,
		NormalizeLists: s.NormalizeLists,
		Seed:           s.Seed,
	}.withDefaults()
}

// WriteTo serializes the matcher in the compact section layout. It
// implements io.WriterTo. It holds the matcher's read lock for the
// duration, so the snapshot is consistent even while Adds are in flight
// (they commit before or after the write, never halfway).
func (mr *MR) WriteTo(w io.Writer) (int64, error) {
	mr.mu.RLock()
	data, err := appendCompactMR(mr)
	mr.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// strategyFor reconstructs the segmentation strategy a persisted matcher
// was built with. The strategy is an interface and is not serialized, but
// the matcher configuration determines it: Content-MR (ContentVectors) is
// always built over TextTiling and SentIntent-MR over sentence units, so
// a loaded matcher segments new posts the same way the offline build did
// instead of silently falling back to Greedy. Matchers built under custom
// names with custom strategies still need SetStrategy after loading.
func strategyFor(name string, contentVectors bool) segment.Strategy {
	switch {
	case contentVectors:
		return segment.TextTiling{}
	case name == "SentIntent-MR":
		return segment.Sentences{}
	default:
		return segment.Greedy{}
	}
}

// SetStrategy replaces the segmentation strategy used by incremental Add
// on a loaded matcher (the strategy itself is configuration and is not
// serialized; ReadMR infers the standard ones — see strategyFor). It must
// be called before the matcher is shared across goroutines: the strategy
// field is read without locking by PrepareAdd.
func (mr *MR) SetStrategy(st segment.Strategy) { mr.cfg.Strategy = st }
