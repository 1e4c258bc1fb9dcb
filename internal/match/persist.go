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
// Everything the online phase needs — the per-cluster indices, unit
// ownership, per-document segment terms, centroids, and statistics —
// round-trips exactly; the segmentation strategy is configuration, not
// state, and is reconstructed (strategyFor).

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
// a loaded matcher segments new posts the way the offline build did.
// Custom strategies under custom names need SetStrategy after loading.
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
// on a loaded matcher (ReadMR infers the standard ones — see
// strategyFor). It must be called before the matcher is shared across
// goroutines: PrepareAdd reads the strategy field without locking.
func (mr *MR) SetStrategy(st segment.Strategy) { mr.cfg.Strategy = st }
