package match

import (
	"math"
	"slices"

	"repro/internal/index"
	"repro/internal/segment"
)

// This file implements incremental maintenance of a built MR matcher.
// Sec 9.2 of the paper discusses arriving posts: intentions drift slowly
// (the authors compared two consecutive StackOverflow years and "noticed no
// significant changes"), so new posts can be folded into the existing
// intention clusters by nearest-centroid assignment, deferring a full
// re-clustering to the cheap offline re-build (Fig 11(b): minutes even at
// millions of segments).
//
// Concurrency: ingestion is split into PrepareAdd — segmentation,
// vectorization, centroid assignment and term interning, which take no
// matcher lock — and PendingAdd.Commit, which takes MR's write lock only
// for the cheap appends. Add (= PrepareAdd + Commit) is therefore safe
// to call from any number of goroutines, interleaved freely with Match
// and the accessors; queries block only for the microseconds a commit
// holds the write lock, not for the document processing.

// PendingAdd is a document that has been segmented, vectorized, and
// assigned to intention clusters but not yet committed into the matcher.
// The split lets a serving layer do the expensive preparation outside any
// lock and make the matcher mutation itself near-instant.
type PendingAdd struct {
	mr        *MR
	numRanges int
	merged    map[int]pendingSeg // cluster → merged segment (refinement rule)
	// commit, when set, is what Commit runs instead of committing into
	// mr; see CommitVia.
	commit func(*PendingAdd) int
}

// pendingSeg is one refined segment of a prepared document: its tokens
// for the segment table and, counted, for the index — nothing is left to
// sort under the write lock.
type pendingSeg struct{ tokens, terms, tf []int32 }

// PrepareAdd segments a new document, assigns each segment to the nearest
// existing intention centroid, applies the refinement rule and interns
// the terms — the one place a served document's strings meet the
// dictionary — without touching the matcher's serving state. It reads
// only immutable matcher state (stages, centroids) and the
// self-locking dictionary, so any number of PrepareAdd calls may run
// concurrently with each other and with queries. Call Commit on the
// result to assign a document id and index the refined segments.
func (mr *MR) PrepareAdd(d *segment.Doc) *PendingAdd {
	tm := spanAddPrepare.Start()
	defer tm.Stop()
	strategy, vectorize, _ := mr.cfg.stages()
	ranges := strategy.Segment(d).Segments()

	// Assign each segment to its nearest centroid and merge per cluster
	// (the refinement rule: at most one segment per document per cluster).
	merged := make(map[int]pendingSeg)
	for _, r := range ranges {
		c := nearestCentroid(mr.centroids, vectorize(d, r[0], r[1]))
		if c < 0 {
			continue
		}
		merged[c] = pendingSeg{tokens: mr.dict.AppendIDs(merged[c].tokens, d.Terms(r[0], r[1]))}
	}
	names := mr.dict.Terms()
	for c, seg := range merged {
		seg.terms, seg.tf = index.CountTerms(names, slices.Clone(seg.tokens), nil)
		merged[c] = seg
	}
	return &PendingAdd{mr: mr, numRanges: len(ranges), merged: merged}
}

// NumSegments returns how many segments the prepared document was split
// into before the refinement merge (the add-path width a trace records).
func (pa *PendingAdd) NumSegments() int { return pa.numRanges }

// Commit indexes the prepared segments under the matcher's write lock and
// returns the document id assigned to the new post. Document ids are
// assigned in commit order. Commit must be called at most once.
func (pa *PendingAdd) Commit() int {
	if pa.commit != nil {
		return pa.commit(pa)
	}
	return pa.CommitTo(pa.mr)
}

// CommitVia makes Commit run fn instead of committing into the
// preparing matcher, and returns pa: a document prepared by a shard
// group commits by one Commit call, as a single matcher's does, while fn
// picks the owning shard, calls CommitTo on it, and returns the global id.
func (pa *PendingAdd) CommitVia(fn func(*PendingAdd) int) *PendingAdd {
	pa.commit = fn
	return pa
}

// CommitTo commits the prepared document into mr, which may be a
// different matcher than the one that prepared it — the sharded serving
// layer prepares against one shard (preparation reads only the stages,
// the centroids and the dictionary, which the shards of a group share)
// and commits into the shard that owns the new document's id. The
// returned id is local to the receiving matcher. CommitTo must be called
// at most once per PendingAdd.
func (pa *PendingAdd) CommitTo(mr *MR) int {
	if pa.mr.dict != mr.dict {
		panic("match: CommitTo: the document was prepared against another dictionary")
	}
	// The commit span measures write-lock hold time — the stall a commit
	// imposes on concurrent queries — so Start sits before the Lock.
	tm := spanAddCommit.Start()
	defer tm.Stop()
	mr.mu.Lock()
	defer mr.mu.Unlock()
	docID := mr.segs.numDocs()
	mr.before = append(mr.before, int32(pa.numRanges))
	mr.stats.NumSegments += pa.numRanges

	for c := 0; c < len(mr.clusters); c++ {
		seg, ok := pa.merged[c]
		if !ok {
			continue
		}
		unit := mr.clusters[c].AddCounted(seg.terms, seg.tf)
		mr.unitDoc[c] = append(mr.unitDoc[c], int32(docID))
		mr.segs.appendSeg(c, unit, seg.tokens)
	}
	mr.segs.endDoc()
	// Bump under the write lock so the new generation is never visible
	// before the mutation it announces.
	mr.gen.Add(1)
	return docID
}

// Generation returns the count of mutations committed into the matcher
// since it was built or loaded. Any change to the collection — and
// therefore, via Eq 9's collection-global statistics, to every score —
// is visible as a generation bump, which is what makes it a sound
// cache-invalidation epoch.
func (mr *MR) Generation() uint64 { return mr.gen.Load() }

// Add segments a new document, assigns each segment to the nearest
// existing intention centroid, applies the refinement rule, and indexes
// the refined segments. It returns the document id assigned to the new
// post. Add is safe for concurrent use with itself, with Match, and with
// every accessor: the heavy preparation runs lock-free and only the final
// commit takes the write lock (see PrepareAdd).
func (mr *MR) Add(d *segment.Doc) int {
	return mr.PrepareAdd(d).Commit()
}

// nearestCentroid returns the index of the closest centroid to vec under
// Euclidean distance, or -1 if there are no centroids.
func nearestCentroid(centroids [][]float64, vec []float64) int {
	best, bestD := -1, math.Inf(1)
	for c, cent := range centroids {
		var d float64
		for i := range cent {
			diff := cent[i] - vec[i]
			d += float64(diff * diff)
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// NumDocs returns the number of documents currently in the matcher,
// including incrementally added ones.
func (mr *MR) NumDocs() int {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	return mr.segs.numDocs()
}
