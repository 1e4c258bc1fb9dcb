package index

import (
	"fmt"
	"math"
	"slices"
)

// columns is the one posting layout: what the compact file spells
// (compact.go), what the offline build produces (Build) and what an
// index is installed from (install). List i belongs to the term terms[i]
// and is posts[ends[i-1]:ends[i]], ascending in unit id; lists come in
// ascending term order, the order Eq 7's denominator is summed in.
type columns struct {
	terms       []int32 // dictionary id per list
	ends        []int32 // end of each list in posts
	posts       []Posting
	denoms      []float64 // per unit: Eq 7 weight denominator
	uniques     []int32   // per unit: unique-term count
	totalUnique int64
}

// tally recomputes the unit columns of nUnits units from the postings,
// which must be in range: the Eq 7 denominators, summed list by list —
// ascending term order, as AddCounted sums a new unit's — and list counts.
func (c *columns) tally(nUnits int) (denoms []float64, uniques []int32) {
	denoms, uniques = make([]float64, nUnits), make([]int32, nUnits)
	for _, p := range c.posts {
		denoms[p.Unit] += logTF(p.TF)
		uniques[p.Unit]++
	}
	return denoms, uniques
}

// Build indexes units — units[u] holds unit u's tokens as ids of dict —
// at once: a counting sort of the (term, unit, tf) triples into the
// columns Load decodes, handed to the same constructor. It scores as the
// index Add would have grown unit by unit does, bit for bit.
func Build(dict *Dict, units [][]int32) *Index {
	names := dict.Terms()
	// Pass 1: each unit's distinct terms and frequencies, and every
	// term's document frequency.
	tokens := 0
	for _, u := range units {
		tokens += len(u)
	}
	runs := make([]Posting, 0, tokens) // Unit holds the term id until the scatter below
	runEnds := make([]int32, len(units))
	df := make([]int32, names.Len())
	var vocab, scratch []int32
	for u, unit := range units {
		scratch = append(scratch[:0], unit...)
		slices.Sort(scratch)
		for i, t := range scratch {
			if i > 0 && t == scratch[i-1] {
				runs[len(runs)-1].TF++
				continue
			}
			runs = append(runs, Posting{Unit: t, TF: 1})
			if df[t]++; df[t] == 1 {
				vocab = append(vocab, t)
			}
		}
		runEnds[u] = int32(len(runs))
	}
	// Lists in ascending term order; df turns into each list's cursor.
	SortByTerm(names, vocab)
	c := columns{terms: vocab, ends: make([]int32, len(vocab)), posts: make([]Posting, len(runs))}
	var end int32
	for i, t := range vocab {
		end, df[t] = end+df[t], end
		c.ends[i] = end
	}
	// Pass 2: scatter, unit by unit, so every list ascends in unit id.
	lo := int32(0)
	for u, hi := range runEnds {
		for _, r := range runs[lo:hi] {
			c.posts[df[r.Unit]] = Posting{Unit: int32(u), TF: r.TF}
			df[r.Unit]++
		}
		lo = hi
	}
	c.denoms, c.uniques = c.tally(len(units))
	c.totalUnique = int64(len(runs))
	ix := NewIn(dict)
	ix.install(c)
	return ix
}

// install replaces the index contents with c — the constructor behind
// Load and Build. Each list is split into its two runs (see list) in the
// pass that carves it: the TF = 1 units into one array for the index,
// the rest into another, every run with its capacity clipped so that
// appending to one copies it out instead of overwriting the next.
func (ix *Index) install(c columns) {
	nMore := 0
	for _, p := range c.posts {
		if p.TF != 1 {
			nMore++
		}
	}
	units, rest := make([]int32, 0, len(c.posts)-nMore), make([]Posting, 0, nMore)
	slot := make(map[int32]int32, len(c.ends))
	ones := make([][]int32, len(c.ends))
	more := make(map[int32][]Posting)
	lo := int32(0)
	for s, hi := range c.ends {
		slot[c.terms[s]] = int32(s)
		u0, r0 := len(units), len(rest)
		for _, p := range c.posts[lo:hi] {
			if p.TF == 1 {
				units = append(units, p.Unit)
			} else {
				rest = append(rest, p)
			}
		}
		ones[s] = units[u0:len(units):len(units)]
		if len(rest) > r0 {
			more[int32(s)] = rest[r0:len(rest):len(rest)]
		}
		lo = hi
	}
	ix.retireNorms()
	ix.slot, ix.ones, ix.more = slot, ones, more
	ix.denoms, ix.uniques, ix.totalUnique = c.denoms, c.uniques, c.totalUnique
}

// validate checks every invariant the query path depends on; names[i]
// is the term of list i, for the error text. Lists must be non-empty and
// strictly ascending in unit id (the binary searches break silently
// otherwise) inside [0, units) (ix.denoms[p.Unit] panics otherwise) with
// every TF >= 1 (log(0)+1 is -Inf); the unit columns must be what the
// postings tally to; totalUnique must be their sum (it feeds the NU
// average, so a skewed value shifts every weight).
func (c *columns) validate(names []string) error {
	nUnits := len(c.denoms)
	if len(c.uniques) != nUnits {
		return fmt.Errorf("%d weight denominators but %d unique-term counts", nUnits, len(c.uniques))
	}
	lo := int32(0)
	for i, hi := range c.ends {
		t := names[i]
		if hi == lo {
			return fmt.Errorf("term %q has an empty posting list", t)
		}
		prev := int32(-1)
		for _, p := range c.posts[lo:hi] {
			if p.Unit < 0 || int(p.Unit) >= nUnits {
				return fmt.Errorf("term %q posting unit %d out of range [0, %d)", t, p.Unit, nUnits)
			}
			if p.Unit <= prev {
				return fmt.Errorf("term %q posting units not strictly ascending (%d after %d)", t, p.Unit, prev)
			}
			if p.TF < 1 {
				return fmt.Errorf("term %q unit %d has term frequency %d (must be >= 1)", t, p.Unit, p.TF)
			}
			prev = p.Unit
		}
		lo = hi
	}
	denoms, counts := c.tally(nUnits)
	var total int64
	for u := 0; u < nUnits; u++ {
		if c.uniques[u] != counts[u] {
			return fmt.Errorf("unit %d declares %d unique terms but %d posting lists cover it", u, c.uniques[u], counts[u])
		}
		// Term-order accumulation reproduces Add's summation order, so the
		// stored denominator must match up to cross-platform libm jitter.
		// Inverted comparison so a NaN denominator (diff = NaN, every
		// ordered comparison false) is rejected, not waved through.
		if diff := math.Abs(denoms[u] - c.denoms[u]); !(diff <= 1e-9*math.Max(1, math.Abs(c.denoms[u]))) {
			return fmt.Errorf("unit %d weight denominator %g inconsistent with postings (recomputed %g)", u, c.denoms[u], denoms[u])
		}
		total += int64(counts[u])
	}
	if c.totalUnique != total {
		return fmt.Errorf("totalUnique %d inconsistent with unit statistics (sum %d)", c.totalUnique, total)
	}
	return nil
}
