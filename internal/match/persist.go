package match

import (
	"fmt"
	"io"
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
// round-trips exactly. The stages are code, not state: only a matcher of
// the paper's method is written, so a loaded one segments and vectorizes
// added posts as its build did.

// WriteTo serializes the matcher in the compact section layout. It
// implements io.WriterTo. It holds the matcher's read lock for the
// duration, so the snapshot is consistent even while Adds are in flight
// (they commit before or after the write, never halfway). A matcher built
// with any MRConfig stage set is refused.
func (mr *MR) WriteTo(w io.Writer) (int64, error) {
	if c := mr.cfg; c.Strategy != nil || c.Vectorize != nil || c.Group != nil {
		return 0, fmt.Errorf("match: %s was built with its own stages; a snapshot holds only the paper's method", mr.name)
	}
	mr.mu.RLock()
	data, err := appendCompactMR(mr)
	mr.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}
