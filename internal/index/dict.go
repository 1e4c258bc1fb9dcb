package index

import (
	"bytes"
	"hash/maphash"
	"math"
	"slices"
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
// In memory the dictionary is the snapshot's string table
// (secfile.AppendStringTable): the term bytes back to back in id order
// and a uint32 column of their end offsets, led by a zero so that term
// id is bytes[ends[id]:ends[id+1]], beside an open-addressed probe
// column that finds a term's id. The probe column has a power-of-two
// size, is at most seven eighths full and probes linearly from a hash
// under a seed of its own, so no set of terms a client sends collides
// in every dictionary. An entry holds id+1 in the bits below the
// column's size, which always exceeds the number of terms, and the top
// of its term's hash above them, so a probe skips almost every other
// term's slot without reading its bytes.
//
// Ids are handed out in arrival order and say nothing about term
// order: a dictionary just read from a snapshot happens to be sorted, a
// served one is not. Eq 7's denominators and Eq 9's scores are summed
// in ascending term order, so whatever takes such a sum orders ids with
// SortByTerm or CountTerms, never numerically.
type Dict struct {
	mu    sync.RWMutex
	seed  maphash.Seed
	bytes []byte   // every term, in id order
	ends  []uint32 // ends[id+1] is where term id's bytes end; ends[0] is 0
	probe []int32  // tagged id+1 at or after the slot its term hashes to; 0 is empty
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{seed: maphash.MakeSeed(), ends: []uint32{0}} }

// TermView is a dictionary's id → term table as of one moment. The
// tables only append and never rewrite a byte, so a view stays valid,
// and safe to read without the dictionary's lock, however much is
// interned after it was taken.
type TermView struct {
	bytes []byte
	ends  []uint32
}

// Terms returns the id → term table as of the call.
func (d *Dict) Terms() TermView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.view()
}

func (d *Dict) view() TermView { return TermView{bytes: d.bytes, ends: d.ends} }

// Len returns how many terms the view holds: ids 0 to Len()-1.
func (v TermView) Len() int { return len(v.ends) - 1 }

// Bytes returns term id's bytes. They are the dictionary's own: read
// them, never write them.
func (v TermView) Bytes(id int32) []byte {
	hi := v.ends[id+1]
	return v.bytes[v.ends[id]:hi:hi]
}

// Term returns term id as a string of its own.
func (v TermView) Term(id int32) string { return string(v.Bytes(id)) }

// Lookup returns term's id, or -1 when the dictionary has never seen
// it — an id no posting list carries, so scans skip it.
func (d *Dict) Lookup(term string) int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, id := d.find(term)
	return id
}

// AppendIDs interns terms and appends their ids to dst in order. The
// common case — every term already known — runs under the read lock.
func (d *Dict) AppendIDs(dst []int32, terms []string) []int32 {
	base, missing, size := len(dst), 0, 0
	d.mu.RLock()
	for _, t := range terms {
		_, id := d.find(t)
		if id < 0 {
			missing, size = missing+1, size+len(t)
		}
		dst = append(dst, id)
	}
	d.mu.RUnlock()
	if missing == 0 {
		return dst
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reserve(missing, size)
	for i, t := range terms {
		if dst[base+i] >= 0 { // ids are never taken back
			continue
		}
		slot, id := d.find(t)
		if id < 0 {
			id = int32(len(d.ends) - 1)
			d.bytes = append(d.bytes, t...)
			if uint64(len(d.bytes)) > math.MaxUint32 {
				panic("index: dictionary of more than 4 GiB of terms")
			}
			d.ends = append(d.ends, uint32(len(d.bytes)))
			d.probe[slot] = d.entry(maphash.String(d.seed, t), id)
		}
		dst[base+i] = id
	}
	return dst
}

// find returns term's id and its slot in the probe column, or -1 and
// the empty slot it would take. Callers hold d.mu; an empty dictionary
// has no slots.
func (d *Dict) find(term string) (slot int, id int32) {
	if len(d.probe) == 0 {
		return -1, -1
	}
	probe, ends, data := d.probe, d.ends, d.bytes
	mask := uint32(len(probe) - 1)
	h := maphash.String(d.seed, term)
	tag := uint32(h>>32) &^ mask
	for i := uint32(h); ; i++ {
		e := uint32(probe[i&mask])
		if e == 0 {
			return int(i & mask), -1
		}
		if id := e&mask - 1; e&^mask == tag && string(data[ends[id]:ends[id+1]]) == term {
			return int(i & mask), int32(id)
		}
	}
}

// entry is the probe entry of term id, whose hash is h.
func (d *Dict) entry(h uint64, id int32) int32 {
	mask := uint32(len(d.probe) - 1)
	return int32(uint32(h>>32)&^mask | uint32(id+1))
}

// reserve makes room for n more terms of size bytes in all: the byte
// and end columns grow as append would, or to size when one call
// brings more than they hold (a snapshot's table, interned whole), and
// the probe column to the smallest power of two that the terms fill to
// at most seven eighths, every id re-probed. Callers hold d.mu.
func (d *Dict) reserve(n, size int) {
	d.bytes = slices.Grow(d.bytes, size)
	d.ends = slices.Grow(d.ends, n)
	slots := max(len(d.probe), 8)
	for (len(d.ends)-1+n)*8 > slots*7 {
		slots *= 2
	}
	if slots == len(d.probe) {
		return
	}
	d.probe = make([]int32, slots)
	mask := uint32(slots - 1)
	v := d.view()
	for id := range int32(len(d.ends) - 1) {
		h := maphash.Bytes(d.seed, v.Bytes(id))
		i := uint32(h)
		for d.probe[i&mask] != 0 {
			i++
		}
		d.probe[i&mask] = d.entry(h, id)
	}
}

// SortByTerm orders ids by ascending term — the summation order of
// Eq 7 and Eq 9 — given the dictionary's table they index.
func SortByTerm(terms TermView, ids []int32) {
	ends, data := terms.ends, terms.bytes
	slices.SortFunc(ids, func(a, b int32) int {
		if a == b {
			return 0
		}
		return bytes.Compare(data[ends[a]:ends[a+1]], data[ends[b]:ends[b+1]])
	})
}

// CountTerms turns a unit's tokens into its distinct terms in ascending
// term order with their frequencies. It sorts and compacts ids in place
// (pass a scratch copy when token order matters) and appends the
// aligned counts to tf.
func CountTerms(terms TermView, ids, tf []int32) (distinct, counts []int32) {
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
