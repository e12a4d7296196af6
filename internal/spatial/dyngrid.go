package spatial

import (
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// DynGrid is the kinetic counterpart of Grid: a uniform bucket grid whose
// point set can move, die and come back without a rebuild. The world bounds
// and cell size are fixed at construction (mobility models keep points inside
// a fixed deployment box, so the static extents cost nothing); each cell
// holds its live point indices in ascending order, which makes every query
// deterministic regardless of the mutation history — the same positions
// always produce the same answers as a freshly built index.
//
// Move and Remove are O(cell occupancy); Within matches Grid.Within's query
// contract and KNearestInto breaks distance ties by index exactly as
// KDTree.KNearestInto does, so the kinetic maintainers reproduce the static
// builders' answers.
type DynGrid struct {
	pts    []geom.Point // slot positions (owned copy; stale for dead slots)
	bounds geom.Rect
	cell   float64
	nx, ny int
	cellOf []int32   // cell per slot, −1 while removed
	cells  [][]int32 // live slot indices per cell, each ascending
	live   int
}

// NewDynGrid indexes pts over the fixed world bounds with the given cell
// size. Positions outside bounds are clamped into the border cells, exactly
// as Grid clamps query coordinates. cell must be positive and bounds
// non-degenerate enough to hold at least one cell.
func NewDynGrid(pts []geom.Point, bounds geom.Rect, cell float64) *DynGrid {
	if cell <= 0 {
		panic("spatial: non-positive cell size")
	}
	g := &DynGrid{
		pts:    append([]geom.Point(nil), pts...),
		bounds: bounds,
		cell:   cell,
	}
	g.nx = int(bounds.Width()/cell) + 1
	g.ny = int(bounds.Height()/cell) + 1
	if g.nx < 1 {
		g.nx = 1
	}
	if g.ny < 1 {
		g.ny = 1
	}
	g.cells = make([][]int32, g.nx*g.ny)
	g.cellOf = make([]int32, len(pts))
	for i, p := range pts {
		c := int32(g.cellIndex(p))
		g.cellOf[i] = c
		g.cells[c] = append(g.cells[c], int32(i))
	}
	g.live = len(pts)
	return g
}

// Len returns the number of live points.
func (g *DynGrid) Len() int { return g.live }

// Cap returns the number of slots (live or removed).
func (g *DynGrid) Cap() int { return len(g.pts) }

// Alive reports whether slot i is currently indexed.
func (g *DynGrid) Alive(i int32) bool { return g.cellOf[i] >= 0 }

// Bounds returns the fixed world bounds.
func (g *DynGrid) Bounds() geom.Rect { return g.bounds }

func (g *DynGrid) cellCoords(p geom.Point) (int, int) {
	cx := int((p.X - g.bounds.Min.X) / g.cell)
	cy := int((p.Y - g.bounds.Min.Y) / g.cell)
	return clampInt(cx, 0, g.nx-1), clampInt(cy, 0, g.ny-1)
}

func (g *DynGrid) cellIndex(p geom.Point) int {
	cx, cy := g.cellCoords(p)
	return cy*g.nx + cx
}

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
	cx0 := clampInt(int(math.Floor((q.X-r-g.bounds.Min.X)/g.cell)), 0, g.nx-1)
	cx1 := clampInt(int(math.Floor((q.X+r-g.bounds.Min.X)/g.cell)), 0, g.nx-1)
	cy0 := clampInt(int(math.Floor((q.Y-r-g.bounds.Min.Y)/g.cell)), 0, g.ny-1)
	cy1 := clampInt(int(math.Floor((q.Y+r-g.bounds.Min.Y)/g.cell)), 0, g.ny-1)
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
	cx, cy := g.cellCoords(q)
	maxRing := g.nx
	if g.ny > maxRing {
		maxRing = g.ny
	}
	for ring := 0; ring <= maxRing; ring++ {
		if h.full() {
			minDist := float64(ring-1) * g.cell
			if ring > 0 && minDist > 0 && minDist*minDist > h.top() {
				break
			}
		}
		cells := appendRingCells(scratch.cells[:0], cx, cy, ring, g.nx, g.ny)
		scratch.cells = cells
		for _, c := range cells {
			for _, i := range g.cells[c] {
				if int(i) == exclude {
					continue
				}
				h.push(g.pts[i].Dist2(q), i)
			}
		}
	}
	return h.appendSorted(dst)
}

// NearestWhere returns the live point nearest to q that satisfies pred,
// breaking distance ties by index, or −1 when no live point qualifies. The
// expanding-ring search stops as soon as no unexamined cell can beat the
// best match, so the cost is proportional to the local density around q, not
// to the index size. scratch carries the ring buffer; nil allocates one.
func (g *DynGrid) NearestWhere(q geom.Point, scratch *KNNScratch, pred func(int32) bool) int32 {
	if g.live == 0 {
		return -1
	}
	if scratch == nil {
		scratch = &KNNScratch{}
	}
	best := int32(-1)
	bestD := math.Inf(1)
	cx, cy := g.cellCoords(q)
	maxRing := g.nx
	if g.ny > maxRing {
		maxRing = g.ny
	}
	for ring := 0; ring <= maxRing; ring++ {
		if best >= 0 {
			minDist := float64(ring-1) * g.cell
			if ring > 0 && minDist > 0 && minDist*minDist > bestD {
				break
			}
		}
		cells := appendRingCells(scratch.cells[:0], cx, cy, ring, g.nx, g.ny)
		scratch.cells = cells
		for _, c := range cells {
			for _, i := range g.cells[c] {
				if !pred(i) {
					continue
				}
				d := g.pts[i].Dist2(q)
				if d < bestD || (d == bestD && i < best) {
					best, bestD = i, d
				}
			}
		}
	}
	return best
}

// appendRingCells appends each valid cell index at L∞ ring distance `ring`
// from (cx, cy) on an nx×ny grid to dst and returns the extended slice —
// the shared ring enumeration behind Grid and DynGrid searches.
func appendRingCells(dst []int32, cx, cy, ring, nx, ny int) []int32 {
	if ring == 0 {
		if cx >= 0 && cx < nx && cy >= 0 && cy < ny {
			dst = append(dst, int32(cy*nx+cx))
		}
		return dst
	}
	x0, x1 := cx-ring, cx+ring
	y0, y1 := cy-ring, cy+ring
	for x := x0; x <= x1; x++ {
		if x < 0 || x >= nx {
			continue
		}
		if y0 >= 0 && y0 < ny {
			dst = append(dst, int32(y0*nx+x))
		}
		if y1 >= 0 && y1 < ny {
			dst = append(dst, int32(y1*nx+x))
		}
	}
	for y := y0 + 1; y <= y1-1; y++ {
		if y < 0 || y >= ny {
			continue
		}
		if x0 >= 0 && x0 < nx {
			dst = append(dst, int32(y*nx+x0))
		}
		if x1 >= 0 && x1 < nx {
			dst = append(dst, int32(y*nx+x1))
		}
	}
	return dst
}
