package index

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Persistence for one Index. The paper performs segmentation and
// grouping offline (Sec 7 "Indexing"); persistence lets a built index
// be saved after that offline phase and reloaded for online matching
// without re-processing the collection.
//
// WriteTo emits the compact section layout of compact.go and Load
// reads it back. A decoded snapshot runs the validateSnapshot gauntlet
// before any byte reaches the live index: one that decodes cleanly but
// violates a query-path invariant (posting unit ids out of range or
// non-ascending, TF = 0, per-unit statistics inconsistent with the
// postings) is rejected with a
// descriptive error at load time — the only line of defense in a
// build-rarely/serve-forever deployment, where the alternative is a
// panic or silent misranking at query time.

// snapshot is the serialized form of an Index: what the compact codec
// encodes from and decodes into, and what validateSnapshot checks.
type snapshot struct {
	Postings    map[string][]Posting
	Denoms      []float64
	Uniques     []int32
	TotalUnique int64
}

// snapshotLocked captures the index state under the read lock.
func (ix *Index) snapshotLocked() snapshot {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := snapshot{
		Postings:    ix.postings,
		Denoms:      make([]float64, len(ix.units)),
		Uniques:     make([]int32, len(ix.units)),
		TotalUnique: ix.totalUnique,
	}
	for i, u := range ix.units {
		snap.Denoms[i] = u.denom
		snap.Uniques[i] = u.unique
	}
	return snap
}

// WriteTo serializes the index in the compact section layout. It
// implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	data, err := appendCompact(ix.snapshotLocked())
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// Load replaces the index contents with a snapshot written by WriteTo,
// held in memory (read or mapped): it decodes, validates every
// query-path invariant, and only then swaps the decoded state in under
// the write lock. Bytes after a valid snapshot are an error, so a
// concatenation or double-write corruption fails at load instead of
// silently serving a prefix.
func (ix *Index) Load(data []byte) error {
	snap, err := decodeCompact(data)
	if err != nil {
		return err
	}
	if err := validateSnapshot(&snap); err != nil {
		return fmt.Errorf("index: invalid snapshot: %w", err)
	}
	units := make([]unitStats, len(snap.Denoms))
	for i := range units {
		units[i] = unitStats{denom: snap.Denoms[i], unique: snap.Uniques[i]}
	}
	// The LogTF numerator is derived state, not persisted; recompute it.
	// validateSnapshot has established TF >= 1, so the value is >= 1,
	// never 0 or -Inf.
	for _, posts := range snap.Postings {
		for i := range posts {
			posts[i].LogTF = math.Log(float64(posts[i].TF)) + 1
		}
	}
	ix.mu.Lock()
	ix.postings = snap.Postings
	ix.units = units
	ix.totalUnique = snap.TotalUnique
	// Posting-list score bounds are derived state too; rebuild them
	// from the swapped-in postings. The rebuild evaluates the same
	// expressions Add does over the same operands (LogTF recomputed
	// above, denom and unique validated against the postings), so a
	// loaded index carries bit-identical bounds to the index that wrote
	// the snapshot.
	ix.rebuildBoundsLocked()
	ix.mu.Unlock()
	return nil
}

// validateSnapshot checks every invariant the query path depends on:
//
//   - Denoms and Uniques describe the same unit count.
//   - Posting lists are strictly ascending in unit id (binary-search
//     Weight breaks silently otherwise) and every unit id is inside
//     [0, units) (ix.units[p.Unit] panics otherwise).
//   - Every TF >= 1 (LogTF recomputation yields log(0)+1 = -Inf at 0).
//   - Per-unit unique-term counts equal the number of posting lists
//     covering the unit, and the Eq 7 weight denominators reproduce from
//     the postings (summed in sorted term order, as Add sums them).
//   - TotalUnique equals the sum of the unique counts (it feeds the NU
//     average; a skewed value shifts every weight).
func validateSnapshot(snap *snapshot) error {
	nUnits := len(snap.Denoms)
	if len(snap.Uniques) != nUnits {
		return fmt.Errorf("%d weight denominators but %d unique-term counts", nUnits, len(snap.Uniques))
	}
	terms := make([]string, 0, len(snap.Postings))
	for t := range snap.Postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	denom := make([]float64, nUnits)
	count := make([]int32, nUnits)
	for _, t := range terms {
		posts := snap.Postings[t]
		if len(posts) == 0 {
			return fmt.Errorf("term %q has an empty posting list", t)
		}
		prev := int32(-1)
		for _, p := range posts {
			if p.Unit < 0 || int(p.Unit) >= nUnits {
				return fmt.Errorf("term %q posting unit %d out of range [0, %d)", t, p.Unit, nUnits)
			}
			if p.Unit <= prev {
				return fmt.Errorf("term %q posting units not strictly ascending (%d after %d)", t, p.Unit, prev)
			}
			if p.TF < 1 {
				return fmt.Errorf("term %q unit %d has term frequency %d (must be >= 1)", t, p.Unit, p.TF)
			}
			denom[p.Unit] += math.Log(float64(p.TF)) + 1
			count[p.Unit]++
			prev = p.Unit
		}
	}
	var total int64
	for u := 0; u < nUnits; u++ {
		if snap.Uniques[u] != count[u] {
			return fmt.Errorf("unit %d declares %d unique terms but %d posting lists cover it", u, snap.Uniques[u], count[u])
		}
		// Sorted-term accumulation reproduces Add's summation order, so the
		// stored denominator must match up to cross-platform libm jitter.
		// Inverted comparison so a NaN denominator (diff = NaN, every
		// ordered comparison false) is rejected, not waved through.
		if diff := math.Abs(denom[u] - snap.Denoms[u]); !(diff <= 1e-9*math.Max(1, math.Abs(snap.Denoms[u]))) {
			return fmt.Errorf("unit %d weight denominator %g inconsistent with postings (recomputed %g)", u, snap.Denoms[u], denom[u])
		}
		total += int64(count[u])
	}
	if snap.TotalUnique != total {
		return fmt.Errorf("totalUnique %d inconsistent with unit statistics (sum %d)", snap.TotalUnique, total)
	}
	return nil
}
