package index

import (
	"slices"
	"strings"
	"sync"
)

// Dict is a collection's term dictionary: every distinct term gets a
// dense int32 id, and everything below the string boundary — posting
// lists, document-frequency columns, the matcher's per-document
// segments, Algorithm 1's probes — names terms by id, as the snapshot
// does. One Dict is shared by every cluster index of a matcher and by
// every shard of a group; strings are interned when a document is
// added and never looked up on the query path.
//
// Ids are handed out in arrival order and say nothing about term
// order: a dictionary just read from a snapshot happens to be sorted, a
// served one is not. Eq 7's denominators and Eq 9's scores are summed
// in ascending term order, so whatever takes such a sum orders ids with
// SortByTerm or CountTerms, never numerically.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]int32
	terms []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: make(map[string]int32)} }

// Terms returns the id → term column as of the call. Entries are
// append-only and never rewritten, so the slice is safe to read without
// the lock: later interning appends past its end.
func (d *Dict) Terms() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms
}

// Lookup returns term's id, or -1 when the dictionary has never seen
// it — an id no posting list carries, so scans skip it.
func (d *Dict) Lookup(term string) int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.ids[term]; ok {
		return id
	}
	return -1
}

// AppendIDs interns terms and appends their ids to dst in order. The
// common case — every term already known — runs under the read lock.
func (d *Dict) AppendIDs(dst []int32, terms []string) []int32 {
	base, missing := len(dst), false
	d.mu.RLock()
	for _, t := range terms {
		id, ok := d.ids[t]
		if !ok {
			id, missing = -1, true
		}
		dst = append(dst, id)
	}
	d.mu.RUnlock()
	if !missing {
		return dst
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, t := range terms {
		id, ok := d.ids[t]
		if !ok {
			id = int32(len(d.terms))
			d.ids[t] = id
			d.terms = append(d.terms, t)
		}
		dst[base+i] = id
	}
	return dst
}

// SortByTerm orders ids by ascending term — the summation order of
// Eq 7 and Eq 9 — given the dictionary column they index.
func SortByTerm(terms []string, ids []int32) {
	slices.SortFunc(ids, func(a, b int32) int {
		if a == b {
			return 0
		}
		return strings.Compare(terms[a], terms[b])
	})
}

// CountTerms turns a unit's tokens into its distinct terms in ascending
// term order with their frequencies. It sorts and compacts ids in place
// (pass a scratch copy when token order matters) and appends the
// aligned counts to tf.
func CountTerms(terms []string, ids, tf []int32) (distinct, counts []int32) {
	SortByTerm(terms, ids)
	n := 0
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			tf[len(tf)-1]++
			continue
		}
		ids[n] = id
		n++
		tf = append(tf, 1)
	}
	return ids[:n], tf
}
