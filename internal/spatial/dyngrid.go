package spatial

import (
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// DynGrid is the query side of the package: a uniform bucket grid whose
// point set can move, die and come back without a rebuild. The world bounds
// and cell size are fixed at construction (mobility models keep points inside
// a fixed deployment box, so the static extents cost nothing); each cell
// holds its live point indices in ascending order, which makes every query
// deterministic regardless of the mutation history — the same positions
// always produce the same answers as a freshly built index.
//
// Move and Remove are O(cell occupancy). KNearestInto and NearestWhere
// break distance ties by index exactly as BruteKNearest does, so the static
// builders and the kinetic maintainers reproduce each other's answers.
type DynGrid struct {
	cellGeom
	pts    []geom.Point // slot positions (owned copy; stale for dead slots)
	cellOf []int32      // cell per slot, −1 while removed
	cells  [][]int32    // live slot indices per cell, each ascending
	live   int
}

// NewDynGrid indexes pts over the fixed world bounds with cells of the
// given size (see CellSize), enlarged like NewGrid's when the bounds would
// need more than maxCellsPerPoint·n + minCellBudget cells. Positions
// outside bounds, and NaN or infinite coordinates, are clamped into the
// border cells; the answers stay exact for finite positions.
// cell must be positive.
func NewDynGrid(pts []geom.Point, bounds geom.Rect, cell float64) *DynGrid {
	n := len(pts)
	g := &DynGrid{
		cellGeom: newCellGeom(bounds, cell, n),
		pts:      slices.Clone(pts),
		live:     n,
	}
	g.cells = make([][]int32, g.nx*g.ny)
	// cellOf and the cell slab share one allocation. A counting sort
	// carves the slab into one capped sub-slice per cell — the first pass
	// counts each cell's population in its slice length — so a cell that
	// grows under motion moves out on append instead of overwriting its
	// neighbor.
	buf := make([]int32, 2*n)
	g.cellOf = buf[:n:n]
	slab := buf[n:]
	for i, p := range pts {
		c := g.cellIndex(p)
		g.cellOf[i] = int32(c)
		g.cells[c] = slab[:len(g.cells[c])+1]
	}
	at := 0
	for c, list := range g.cells {
		m := len(list)
		g.cells[c] = slab[at : at : at+m]
		at += m
	}
	for i, c := range g.cellOf {
		g.cells[c] = append(g.cells[c], int32(i))
	}
	return g
}

// Len returns the number of live points.
func (g *DynGrid) Len() int { return g.live }

// Cap returns the number of slots (live or removed).
func (g *DynGrid) Cap() int { return len(g.pts) }

// Alive reports whether slot i is currently indexed.
func (g *DynGrid) Alive(i int32) bool { return g.cellOf[i] >= 0 }

// cellInsert adds slot i to cell c keeping the list ascending.
func (g *DynGrid) cellInsert(c int32, i int32) {
	list := g.cells[c]
	at := sort.Search(len(list), func(k int) bool { return list[k] >= i })
	list = append(list, 0)
	copy(list[at+1:], list[at:])
	list[at] = i
	g.cells[c] = list
}

// cellDelete removes slot i from cell c (which must contain it).
func (g *DynGrid) cellDelete(c int32, i int32) {
	list := g.cells[c]
	at := sort.Search(len(list), func(k int) bool { return list[k] >= i })
	copy(list[at:], list[at+1:])
	g.cells[c] = list[:len(list)-1]
}

// Move updates slot i's position. A move within one cell only rewrites the
// stored coordinate; a boundary crossing transfers the slot between the two
// cell lists. i must be live.
func (g *DynGrid) Move(i int32, p geom.Point) {
	if g.cellOf[i] < 0 {
		panic("spatial: Move on removed slot")
	}
	g.pts[i] = p
	c := int32(g.cellIndex(p))
	if c == g.cellOf[i] {
		return
	}
	g.cellDelete(g.cellOf[i], i)
	g.cellInsert(c, i)
	g.cellOf[i] = c
}

// Remove deletes slot i from the index for good; its position is retained.
// Removing a removed slot is a no-op.
func (g *DynGrid) Remove(i int32) {
	if g.cellOf[i] < 0 {
		return
	}
	g.cellDelete(g.cellOf[i], i)
	g.cellOf[i] = -1
	g.live--
}

// AppendAlive appends every live slot index to dst in ascending order and
// returns the extended slice.
func (g *DynGrid) AppendAlive(dst []int32) []int32 {
	at := len(dst)
	for _, list := range g.cells {
		dst = append(dst, list...)
	}
	// Cell-major collection; callers want index order.
	tail := dst[at:]
	slices.Sort(tail)
	return dst
}

// Within appends to dst the indices of all live points within distance r of
// q and returns the extended slice. Results arrive in cell-major order with
// ascending indices inside each cell — a pure function of the current
// positions.
func (g *DynGrid) Within(q geom.Point, r float64, dst []int32) []int32 {
	if g.live == 0 {
		return dst
	}
	r2 := r * r
	cx0, cy0 := g.cellCoords(geom.Point{X: q.X - r, Y: q.Y - r})
	cx1, cy1 := g.cellCoords(geom.Point{X: q.X + r, Y: q.Y + r})
	for cy := cy0; cy <= cy1; cy++ {
		rowBase := cy * g.nx
		for cx := cx0; cx <= cx1; cx++ {
			for _, i := range g.cells[rowBase+cx] {
				if g.pts[i].Dist2(q) <= r2 {
					dst = append(dst, i)
				}
			}
		}
	}
	return dst
}

// KNearestInto appends to dst the indices of the k live points nearest to q —
// excluding index exclude (−1 for none), sorted by increasing distance with
// ties broken by index — and returns the extended slice. scratch carries the
// candidate heap across calls (nil allocates one); after warm-up the query
// performs no heap allocations beyond growth of dst.
func (g *DynGrid) KNearestInto(q geom.Point, k int, exclude int, scratch *KNNScratch, dst []int32) []int32 {
	if k <= 0 || g.live == 0 {
		return dst
	}
	if scratch == nil {
		scratch = &KNNScratch{}
	}
	h := &scratch.h
	h.reset(k)
	g.search(q, func(gap2 float64) bool { return h.full() && gap2 > h.top() }, func(cell []int32) {
		for _, i := range cell {
			if int(i) != exclude {
				h.push(g.pts[i].Dist2(q), i)
			}
		}
	})
	return h.appendSorted(dst)
}

// NearestWhere returns the live point nearest to q that satisfies pred,
// breaking distance ties by index, or −1 when no live point qualifies. The
// expanding-ring search stops as soon as no unexamined cell can beat the
// best match, so the cost is proportional to the local density around q, not
// to the index size.
func (g *DynGrid) NearestWhere(q geom.Point, pred func(int32) bool) int32 {
	best := int32(-1)
	bestD := math.Inf(1)
	g.search(q, func(gap2 float64) bool { return best >= 0 && gap2 > bestD }, func(cell []int32) {
		for _, i := range cell {
			if !pred(i) {
				continue
			}
			if d := g.pts[i].Dist2(q); d < bestD || (d == bestD && i < best) {
				best, bestD = i, d
			}
		}
	})
	return best
}

// search is the expanding-ring scan behind KNearestInto and NearestWhere: it
// calls visit with the live slots of each cell at L∞ cell distance 0, 1,
// 2, … from q's cell, in place, and stops before a ring once done(gap²) holds,
// where gap is a lower bound on the distance from q to any point in that
// ring or beyond. Clamping is a contraction, so the bound also holds for
// points and queries outside the bounds; the bound gives up 1/1024 of a
// cell against rounding in the cell assignment.
func (g *DynGrid) search(q geom.Point, done func(gap2 float64) bool, visit func(cell []int32)) {
	if g.live == 0 {
		return
	}
	cx, cy := g.cellCoords(q)
	for ring := 0; ring <= max(g.nx, g.ny); ring++ {
		if gap := (float64(ring) - 1 - 1.0/1024) * g.cell; gap > 0 && done(gap*gap) {
			return
		}
		for y := max(cy-ring, 0); y <= min(cy+ring, g.ny-1); y++ {
			lo, hi, step := max(cx-ring, 0), min(cx+ring, g.nx-1), 1
			if y != cy-ring && y != cy+ring {
				lo, hi, step = cx-ring, cx+ring, 2*ring // side cells only
			}
			for x := lo; x <= hi; x += step {
				if x >= 0 && x < g.nx {
					visit(g.cells[y*g.nx+x])
				}
			}
		}
	}
}
