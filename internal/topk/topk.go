// Package topk provides the top-k selection helper shared by the
// matching and shard layers: match keeps a running best-k over scored
// documents (Algorithm 2's final ranking; internal/baseline's LDA scan
// does the same) and shard.Directory.Merge over the per-shard
// Algorithm 1 lists it merges. (The index scan keeps its own pooled heap in the
// same order; see index/accum.go.) This package holds the min-heap with
// the tie-breaking rule that keeps rankings deterministic — higher
// score first, lower id on equal scores — so results never depend on
// map iteration order.
package topk

// Item is one scored candidate: an opaque integer id (a unit id inside an
// index, or a document id at the matching layer) with its score.
type Item struct {
	ID    int
	Score float64
}

// beats reports whether candidate a outranks b under the full ordering
// (higher score first, lower id on ties) — used at the heap replacement
// gate so ties never depend on insertion order.
func beats(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// Collector accumulates scored candidates and retains the k best under
// the deterministic ordering. The zero value is unusable; call New. A
// Collector is not safe for concurrent use.
type Collector struct {
	k int
	h itemHeap
}

// New returns a Collector that keeps the k highest-scoring items. k <= 0
// collects nothing.
func New(k int) *Collector {
	c := &Collector{k: k}
	if k > 0 {
		c.h = make(itemHeap, 0, k)
	}
	return c
}

// Offer submits one candidate. It is kept only while it ranks among the
// k best seen so far.
func (c *Collector) Offer(id int, score float64) {
	if c.k <= 0 {
		return
	}
	cand := Item{ID: id, Score: score}
	if len(c.h) < c.k {
		c.h = append(c.h, cand)
		c.h.up(len(c.h) - 1)
	} else if beats(cand, c.h[0]) {
		c.h[0] = cand
		c.h.down(0)
	}
}

// Results drains the collector and returns the retained items best first
// (descending score, ascending id on ties). The Collector is empty
// afterwards and may be reused.
func (c *Collector) Results() []Item {
	h := c.h
	out := make([]Item, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		h.down(0)
	}
	c.h = h
	return out
}

// itemHeap is a min-heap on score; the worst retained item sits at the
// root so it can be evicted in O(log k). Ties order worse-id-first (the
// inverse of beats) so the eviction victim matches the full ordering.
// The sift operations are hand-rolled rather than going through
// container/heap: the interface-based API boxes every pushed and popped
// Item, and at one heap per cluster probe per shard that boxing
// dominated the serving path's allocation profile.
type itemHeap []Item

// worse reports whether h[i] ranks below h[j] — the min-heap priority.
func (h itemHeap) worse(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID
}

func (h itemHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h itemHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.worse(right, left) {
			min = right
		}
		if !h.worse(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
