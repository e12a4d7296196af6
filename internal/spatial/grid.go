// Package spatial provides uniform-grid indexes over 2D point sets and disks
// and their brute-force oracles. Grid enumerates: it buckets a fixed point
// set into a CSR cell slab whose cells rgg's unit-disk-graph builder walks
// pair by pair, so it has no per-point queries at all. DynGrid answers every
// point query — radius, k-nearest and nearest-matching — for the static
// k-NN builders (rgg.NN, hng.Build) and for the kinetic maintainers, whose
// point sets move and die without a rebuild. Every query is property-tested
// against BruteWithin and BruteKNearest, ties broken by index. DiskIndex
// answers the reverse question, which registered disks may contain a
// point, for the kinetic HNG's repair; its property test checks that no
// containing disk is missed.
//
// A grid's cells are sized for the expected population (CellSize) or the
// query radius, so its cost follows density. A clustered set is the
// accepted weak spot:
// one far outlier stretches the bounds and crowds every other point into a
// few cells. On 9,901 Poisson points plus one at (10⁶, 10⁶), a k = 6 NN
// build takes ~300 ms on the grid against ~20 ms on the kd-tree it
// replaced (2-CPU container; ~10 vs ~16 ms without the outlier). The
// answers stay exact. Every NN and HNG input in the scenarios and
// benchmarks is a Poisson deployment or waypoint motion in a box, so no
// workload pays the clustered cost.
package spatial

import (
	"math"

	"repro/internal/geom"
)

// cellGeom is the cell geometry both grids share: a rectangle tiled by
// nx × ny square cells of side cell, anchored at bounds.Min.
type cellGeom struct {
	bounds geom.Rect
	cell   float64
	nx, ny int
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

// newCellGeom tiles bounds with cells of the given size for n points,
// doubling the size until the grid has at most maxCellsPerPoint·n +
// minCellBudget cells. A cell never shrinks below the requested size, so
// radius-cell stencils stay exact. cell must be positive.
func newCellGeom(bounds geom.Rect, cell float64, n int) cellGeom {
	if !(cell > 0) {
		panic("spatial: non-positive cell size")
	}
	c := cellGeom{bounds: bounds, cell: cell}
	w, h := extent(bounds.Width()), extent(bounds.Height())
	budget := float64(maxCellsPerPoint*n + minCellBudget)
	for (math.Floor(w/c.cell)+1)*(math.Floor(h/c.cell)+1) > budget {
		c.cell *= 2
	}
	c.nx = int(w/c.cell) + 1
	c.ny = int(h/c.cell) + 1
	return c
}

// extent clamps a side length into [0, MaxFloat64]: a NaN or negative side
// spans one cell, an overflowed one the largest finite length.
func extent(v float64) float64 {
	if !(v >= 0) {
		return 0
	}
	return math.Min(v, math.MaxFloat64)
}

// Bounds returns the rectangle the cells tile.
func (c *cellGeom) Bounds() geom.Rect { return c.bounds }

// Dims returns the cell-grid dimensions (nx columns × ny rows).
func (c *cellGeom) Dims() (nx, ny int) { return c.nx, c.ny }

// cellCoords returns the cell holding p; points outside the bounds, and
// NaN or infinite coordinates, clamp into the border cells.
func (c *cellGeom) cellCoords(p geom.Point) (int, int) {
	return clampCell((p.X-c.bounds.Min.X)/c.cell, c.nx), clampCell((p.Y-c.bounds.Min.Y)/c.cell, c.ny)
}

func (c *cellGeom) cellIndex(p geom.Point) int {
	cx, cy := c.cellCoords(p)
	return cy*c.nx + cx
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

// CellSize returns the cell side giving pop points in box an expected O(1)
// occupancy per cell: the longer side of box over √pop. A degenerate box
// counts as side 1 and pop is taken as at least 1.
func CellSize(box geom.Rect, pop int) float64 {
	side := math.Min(math.Max(box.Width(), box.Height()), math.MaxFloat64)
	if !(side > 0) {
		side = 1
	}
	cell := side / math.Sqrt(float64(max(pop, 1)))
	if !(cell > 0) {
		return side // a subnormal side can underflow to 0
	}
	return cell
}

// FiniteBounds returns the bounding box of the points' finite coordinates,
// per axis; an axis without any finite coordinate gets the range [0, 0].
func FiniteBounds(pts []geom.Point) geom.Rect {
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

// Grid is a uniform-cell bucketing of a fixed point set, laid out as a CSR
// slab: the enumeration side of the package.
type Grid struct {
	cellGeom
	start []int32 // CSR offsets into order, len nx*ny+1
	order []int32 // point indices grouped by cell, ascending inside each
}

// NewGrid buckets pts into cells of the given size over the bounding box of
// their finite coordinates (points with a NaN or infinite coordinate are
// clamped into border cells); cell must be positive. When the bounds would
// need more than maxCellsPerPoint·n + minCellBudget cells — a far outlier,
// say — the cell size is doubled until they fit.
func NewGrid(pts []geom.Point, cell float64) *Grid {
	g := &Grid{cellGeom: newCellGeom(FiniteBounds(pts), cell, len(pts))}
	// Counting sort points into cells (CSR layout).
	cellOf := make([]int32, len(pts))
	counts := make([]int32, g.nx*g.ny+1)
	for i, p := range pts {
		c := int32(g.cellIndex(p))
		cellOf[i] = c
		counts[c+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	g.start = counts
	g.order = make([]int32, len(pts))
	fill := make([]int32, g.nx*g.ny)
	for i, c := range cellOf {
		g.order[g.start[c]+fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// CellPoints returns the indices of the points in cell (cx, cy) — a
// subslice of the index's internal order slab, valid until the grid is
// garbage. Out-of-range cells return nil. This is the raw bucket access
// the pair-free fixed-radius enumeration in rgg is built on: iterating
// cells directly visits each candidate pair once, where per-point radius
// queries visit every pair twice.
func (g *Grid) CellPoints(cx, cy int) []int32 {
	if cx < 0 || cy < 0 || cx >= g.nx || cy >= g.ny {
		return nil
	}
	c := cy*g.nx + cx
	return g.order[g.start[c]:g.start[c+1]]
}
