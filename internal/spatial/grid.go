// Package spatial provides spatial indexes over 2D point sets: a static
// uniform grid (cell list) for fixed-radius work, a kinetic grid (DynGrid)
// for point sets that move and die, and a static kd-tree for k-nearest-
// neighbor queries.
//
// The unit-disk-graph builder wants radius queries at a fixed radius, for
// which the grid with cell size = radius is optimal (O(1) expected work per
// reported neighbor under a Poisson process). The static k-NN builders
// (rgg.NN, hng.Build) use the kd-tree: a median-split tree adapts to the
// data, so its query cost stays logarithmic on clustered point sets, where
// a uniform grid's ring search degrades towards a scan of the crowded
// cells. The kinetic maintainers query DynGrid, whose cells absorb moves
// without a rebuild. Every query is property-tested against brute force.
package spatial

import (
	"math"

	"repro/internal/geom"
)

// Grid is a uniform-cell spatial index over a fixed point set.
type Grid struct {
	pts    []geom.Point
	bounds geom.Rect
	cell   float64
	nx, ny int
	cellOf []int32 // cell index per point
	start  []int32 // CSR offsets into order, len nx*ny+1
	order  []int32 // point indices grouped by cell
}

// maxCellsPerPoint and minCellBudget bound a grid to
// maxCellsPerPoint·n + minCellBudget cells. A Poisson deployment at
// density λ indexed at cell size r has ~1/(λr²) cells per point, so the
// bound only binds on sparse or outlier-stretched point sets, where it
// keeps the cell slab O(n) instead of O(extent²).
const (
	maxCellsPerPoint = 16
	minCellBudget    = 1024
)

// NewGrid indexes pts with the given cell size. The bounds are computed from
// the finite coordinates of the data (points with a NaN or infinite
// coordinate are clamped into border cells); cell must be positive. When
// the bounds would need more than maxCellsPerPoint·n + minCellBudget cells
// — a far outlier, say — the cell size is doubled until they fit: a cell
// never shrinks below the requested size, so radius-cell stencils stay
// exact.
func NewGrid(pts []geom.Point, cell float64) *Grid {
	if !(cell > 0) {
		panic("spatial: non-positive cell size")
	}
	g := &Grid{pts: pts, cell: cell, bounds: finiteBounds(pts)}
	budget := float64(maxCellsPerPoint*len(pts) + minCellBudget)
	w, h := math.Min(g.bounds.Width(), math.MaxFloat64), math.Min(g.bounds.Height(), math.MaxFloat64)
	for (math.Floor(w/g.cell)+1)*(math.Floor(h/g.cell)+1) > budget {
		g.cell *= 2
	}
	g.nx = int(w/g.cell) + 1
	g.ny = int(h/g.cell) + 1
	// Counting sort points into cells (CSR layout).
	g.cellOf = make([]int32, len(pts))
	counts := make([]int32, g.nx*g.ny+1)
	for i, p := range pts {
		c := int32(g.cellIndex(p))
		g.cellOf[i] = c
		counts[c+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	g.start = counts
	g.order = make([]int32, len(pts))
	fill := make([]int32, g.nx*g.ny)
	for i := range pts {
		c := g.cellOf[i]
		g.order[g.start[c]+fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// Points returns the indexed point slice (not a copy).
func (g *Grid) Points() []geom.Point { return g.pts }

// Bounds returns the bounding box of the indexed points' finite
// coordinates.
func (g *Grid) Bounds() geom.Rect { return g.bounds }

// Dims returns the cell-grid dimensions (nx columns × ny rows).
func (g *Grid) Dims() (nx, ny int) { return g.nx, g.ny }

// CellPoints returns the indices of the points in cell (cx, cy) — a
// subslice of the index's internal order slab, valid until the grid is
// garbage. Out-of-range cells return nil. This is the raw bucket access
// the pair-free fixed-radius enumeration in rgg is built on: iterating
// cells directly visits each candidate pair once, where per-point Within
// queries visit every pair twice.
func (g *Grid) CellPoints(cx, cy int) []int32 {
	if cx < 0 || cy < 0 || cx >= g.nx || cy >= g.ny {
		return nil
	}
	c := cy*g.nx + cx
	return g.order[g.start[c]:g.start[c+1]]
}

func (g *Grid) cellCoords(p geom.Point) (int, int) {
	return clampCell((p.X-g.bounds.Min.X)/g.cell, g.nx), clampCell((p.Y-g.bounds.Min.Y)/g.cell, g.ny)
}

// clampCell truncates a fractional cell coordinate into [0, n): NaN and
// values below zero map to 0, values (or +Inf) at or past n to n−1. The
// comparison happens in floating point, so a coordinate beyond the int
// range never reaches the conversion.
func clampCell(f float64, n int) int {
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(n):
		return n - 1
	}
	return int(f)
}

// finiteBounds returns the bounding box of the points' finite coordinates,
// per axis; an axis without any finite coordinate gets the range [0, 0].
func finiteBounds(pts []geom.Point) geom.Rect {
	lo := geom.Point{X: math.Inf(1), Y: math.Inf(1)}
	hi := geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	for _, p := range pts {
		if !math.IsNaN(p.X) && !math.IsInf(p.X, 0) {
			lo.X, hi.X = min(lo.X, p.X), max(hi.X, p.X)
		}
		if !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0) {
			lo.Y, hi.Y = min(lo.Y, p.Y), max(hi.Y, p.Y)
		}
	}
	if lo.X > hi.X {
		lo.X, hi.X = 0, 0
	}
	if lo.Y > hi.Y {
		lo.Y, hi.Y = 0, 0
	}
	return geom.Rect{Min: lo, Max: hi}
}

func (g *Grid) cellIndex(p geom.Point) int {
	cx, cy := g.cellCoords(p)
	return cy*g.nx + cx
}

// Within appends to dst the indices of all points within distance r of q
// (including any indexed point equal to q) and returns the extended slice.
func (g *Grid) Within(q geom.Point, r float64, dst []int32) []int32 {
	if len(g.pts) == 0 {
		return dst
	}
	r2 := r * r
	cx0 := clampCell((q.X-r-g.bounds.Min.X)/g.cell, g.nx)
	cx1 := clampCell((q.X+r-g.bounds.Min.X)/g.cell, g.nx)
	cy0 := clampCell((q.Y-r-g.bounds.Min.Y)/g.cell, g.ny)
	cy1 := clampCell((q.Y+r-g.bounds.Min.Y)/g.cell, g.ny)
	for cy := cy0; cy <= cy1; cy++ {
		rowBase := cy * g.nx
		for cx := cx0; cx <= cx1; cx++ {
			c := rowBase + cx
			for _, i := range g.order[g.start[c]:g.start[c+1]] {
				if g.pts[i].Dist2(q) <= r2 {
					dst = append(dst, i)
				}
			}
		}
	}
	return dst
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
