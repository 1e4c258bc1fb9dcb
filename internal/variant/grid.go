package variant

import (
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
)

// maxGridDims bounds how many dimensions index the cell lattice. Cell
// candidate enumeration scans (2·span+1)^d cells per query, so the grid
// keys on the few highest-variance axes and verifies candidates with the
// full-dimension distance — exact for any point set, fast when most of the
// spread lives in a few dimensions (the 28-dim CM weight vectors
// concentrate variance in the handful of active communication means).
const maxGridDims = 3

// cellKey addresses one lattice cell. Unused trailing dimensions stay 0.
type cellKey [maxGridDims]int32

// grid is a cell-list spatial index over dense vectors: points are binned
// into an axis-aligned lattice of edge length `cell` on their
// highest-variance dimensions, and a radius query scans only the cells
// that can intersect the query ball instead of the whole collection. A
// query with radius r verifies every candidate with the exact
// full-dimension Euclidean distance, so results are identical to a linear
// scan (projection onto a dimension subset never increases distance).
//
// A grid is immutable after newGrid and safe for concurrent queries.
type grid struct {
	points [][]float64
	cell   float64
	dims   [maxGridDims]int // dimension indices keyed by the lattice
	ndims  int
	cells  map[cellKey][]int32
}

// newGrid indexes points with the given cell edge length, typically the
// radius the queries will use (then a query scans 3^d cells). cell <= 0
// degenerates to a single cell holding every point — still correct,
// equivalent to a linear scan.
func newGrid(points [][]float64, cell float64) *grid {
	g := &grid{points: points, cell: cell}
	if len(points) == 0 {
		return g
	}
	if dim := len(points[0]); dim < maxGridDims {
		g.ndims = dim
	} else {
		g.ndims = maxGridDims
	}
	if cell > 0 {
		g.dims = topVarianceDims(points, g.ndims)
	}
	g.cells = make(map[cellKey][]int32, len(points)/4+1)
	for i, p := range points {
		k := g.keyOf(p)
		g.cells[k] = append(g.cells[k], int32(i))
	}
	return g
}

// keyOf returns the lattice cell containing p.
func (g *grid) keyOf(p []float64) cellKey {
	var k cellKey
	if g.cell <= 0 {
		return k
	}
	for a := 0; a < g.ndims; a++ {
		k[a] = int32(math.Floor(p[g.dims[a]] / g.cell))
	}
	return k
}

// Radius appends to buf[:0] the indices of every point within Euclidean
// distance r of q (full-dimension distance, boundary inclusive), excluding
// index `exclude` (pass a negative value to exclude nothing), and returns
// the buffer sorted ascending. Passing the previous result as buf makes
// repeated queries allocation-free once the buffer has grown to the
// largest neighborhood.
func (g *grid) Radius(q []float64, r float64, exclude int, buf []int32) []int32 {
	buf = buf[:0]
	if len(g.points) == 0 || r < 0 {
		return buf
	}
	rSq := r * r
	scan := func(members []int32) {
		for _, j := range members {
			if int(j) == exclude {
				continue
			}
			if cluster.SqDist(q, g.points[j]) <= rSq {
				buf = append(buf, j)
			}
		}
	}
	if g.cell <= 0 {
		scan(g.cells[cellKey{}])
		return buf // single-cell layout preserves insertion (= index) order
	}
	span := int32(math.Ceil(r / g.cell))
	base := g.keyOf(q)
	var lo, hi cellKey
	for a := 0; a < maxGridDims; a++ {
		if a < g.ndims {
			lo[a], hi[a] = base[a]-span, base[a]+span
		}
	}
	for c0 := lo[0]; c0 <= hi[0]; c0++ {
		for c1 := lo[1]; c1 <= hi[1]; c1++ {
			for c2 := lo[2]; c2 <= hi[2]; c2++ {
				scan(g.cells[cellKey{c0, c1, c2}])
			}
		}
	}
	// Candidates arrive cell by cell; sort so callers see the same
	// ascending order a linear scan would produce (DBSCAN's expansion
	// order, and therefore its exact labeling, depends on it).
	// slices.Sort, not sort.Slice: the latter allocates its closure on
	// every call, and Radius runs once per point in the region-query loop.
	slices.Sort(buf)
	return buf
}

// topVarianceDims ranks dimensions by variance and returns the top ndims —
// the leading "principal" axes without a full PCA, which is all the cell
// lattice needs: dimensions that do not vary cannot separate cells. Ties
// break toward the lower dimension index for determinism.
func topVarianceDims(points [][]float64, ndims int) [maxGridDims]int {
	dim := len(points[0])
	mean := make([]float64, dim)
	for _, p := range points {
		for d, v := range p {
			mean[d] += v
		}
	}
	n := float64(len(points))
	for d := range mean {
		mean[d] /= n
	}
	variance := make([]float64, dim)
	for _, p := range points {
		for d, v := range p {
			dv := v - mean[d]
			variance[d] += float64(dv * dv)
		}
	}
	order := make([]int, dim)
	for d := range order {
		order[d] = d
	}
	sort.Slice(order, func(i, j int) bool {
		if variance[order[i]] != variance[order[j]] {
			return variance[order[i]] > variance[order[j]]
		}
		return order[i] < order[j]
	})
	var dims [maxGridDims]int
	copy(dims[:], order[:ndims])
	return dims
}
