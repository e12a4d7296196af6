package rgg

import (
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/spatial"
)

// gridCellGrain is the number of grid cells per enumeration shard. At cell
// size r under a Poisson(λ) process a cell holds λr² points, so a shard
// carries a few thousand points — enough to amortize the per-shard edge
// buffer, small enough to spread across cores.
const gridCellGrain = 256

// ExpectedUDGEdges estimates the undirected edge count of the unit disk
// graph of radius r over n points spread over the given area: each point
// sees ~density·πr² neighbors, each edge is shared by two. UDGGrid uses it
// to pre-size edge collectors (an overestimate costs slack capacity, an
// underestimate one growth step, so the margin leans high); the daemon uses
// it to refuse oversized builds before allocating anything.
func ExpectedUDGEdges(n, area, r float64) float64 {
	if !(area > 0) || n == 0 {
		return 0
	}
	return n * (n / area) * math.Pi * r * r / 2
}

// UDGGrid builds the unit disk graph with connection radius r over pts by
// pair-free cell enumeration: points are bucketed into a uniform grid of
// cell size r, and each unordered candidate pair is visited exactly once by
// pairing every cell with itself and with its half-open neighborhood (the
// four cells east, north-west, north, north-east). Two points within
// distance r differ by at most one cell index per axis, so the half-open
// stencil is exhaustive — including pairs at distance exactly r landing on
// a cell boundary (property-tested).
//
// Compared to per-point Within queries this does half the distance tests
// and never materializes a candidate neighbor list: surviving edges are
// appended straight into pre-sized per-shard packed-edge buffers (capacity
// from the n·πr²·density expected-degree estimate) whose deterministic
// concatenation feeds graph.FromPacked without a builder copy. Memory is
// O(n + m) in a handful of slabs: for m edges the 8m-byte packed slab, and
// during the CSR build Adj (8m bytes) and its 4m-byte side slab of source
// bits — no sort buffer the size of the pair set. The CSR build is
// insertion-order independent, so the result is identical at any
// GOMAXPROCS.
//
// UDG is this builder; it serves every scale, from the ~10⁴-point
// experiments to the million-node tier, and is equivalence-gated at 10⁴
// against the per-point-query oracle in the package tests.
func UDGGrid(pts []geom.Point, r float64) *Geometric {
	if len(pts) == 0 || !(r > 0) {
		return &Geometric{CSR: graph.FromPacked(len(pts), nil, true), Pos: pts}
	}
	grid := spatial.NewGrid(pts, r)
	nx, ny := grid.Dims()
	nc := nx * ny
	r2 := r * r

	b := grid.Bounds()
	perShard := ExpectedUDGEdges(float64(len(pts)), b.Width()*b.Height(), r) / float64(nc) * gridCellGrain
	capHint := int(perShard*1.2) + 16

	// The half-open cell stencil: Self pairs within the cell, then the four
	// neighbor cells that see each unordered cell pair exactly once.
	type offset struct{ dx, dy int }
	stencil := [4]offset{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}

	edges := parallel.CollectCap(nc, gridCellGrain, capHint, func(lo, hi int, out []uint64) []uint64 {
		for c := lo; c < hi; c++ {
			cx, cy := c%nx, c/nx
			cell := grid.CellPoints(cx, cy)
			if len(cell) == 0 {
				continue
			}
			// Within-cell pairs (i < j by bucket position).
			for a := 0; a < len(cell); a++ {
				pa := pts[cell[a]]
				for b := a + 1; b < len(cell); b++ {
					if pa.Dist2(pts[cell[b]]) <= r2 {
						out = append(out, graph.Pack(cell[a], cell[b]))
					}
				}
			}
			// Cross-cell pairs with the half-open neighborhood.
			for _, o := range stencil {
				nb := grid.CellPoints(cx+o.dx, cy+o.dy)
				for _, i := range cell {
					pi := pts[i]
					for _, j := range nb {
						if pi.Dist2(pts[j]) <= r2 {
							out = append(out, graph.Pack(i, j))
						}
					}
				}
			}
		}
		return out
	})
	return &Geometric{CSR: graph.FromPacked(len(pts), edges, true), Pos: pts}
}

// UDGGridSoA is UDGGrid over a struct-of-arrays deployment: the slabs are
// materialized into an interleaved point slice once (the single conversion
// the scale tier performs — the distance loop reads both coordinates of a
// point per step, which favors the interleaved layout) and the graph is
// built over it. The returned Geometric owns that point slice.
func UDGGridSoA(s geom.SoA, r float64) *Geometric {
	return UDGGrid(s.Points(nil), r)
}
