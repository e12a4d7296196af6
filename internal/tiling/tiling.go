// Package tiling implements the square tilings of R² and the tile-region
// families at the heart of the paper's constructions (§2): the UDG-SENS
// 5-region tile (center disk C0 plus four edge relay regions) and the
// NN-SENS 9-region tile (center disk C0, four outer disks Cl/Cr/Ct/Cb, four
// bridge regions El/Er/Et/Eb), together with the good-tile predicates and
// the bijection φ between tiles and sites of Z² used for the site
// percolation coupling.
//
// Geometry modes: the paper's literal UDG relay-region definition is empty
// (see DESIGN.md §2); this package provides the literal regions (for the
// negative result), a repaired feasible parameterization (the default), and
// a relaxed operational variant.
package tiling

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Coord identifies a tile by its integer grid coordinates: tile (I, J)
// covers [I·side, (I+1)·side] × [J·side, (J+1)·side].
type Coord struct {
	I, J int
}

// Direction indexes the four tile neighbors.
type Direction int

// The four axis directions, in the paper's l/r/t/b naming.
const (
	Right Direction = iota
	Left
	Top
	Bottom
	numDirections
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Right:
		return "right"
	case Left:
		return "left"
	case Top:
		return "top"
	case Bottom:
		return "bottom"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Vec returns the unit lattice vector of the direction.
func (d Direction) Vec() (dx, dy int) {
	switch d {
	case Right:
		return 1, 0
	case Left:
		return -1, 0
	case Top:
		return 0, 1
	default:
		return 0, -1
	}
}

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction {
	switch d {
	case Right:
		return Left
	case Left:
		return Right
	case Top:
		return Bottom
	default:
		return Top
	}
}

// Directions lists all four directions for range loops.
var Directions = [4]Direction{Right, Left, Top, Bottom}

// Tiling is a square tiling of the plane with the given side length.
type Tiling struct {
	Side float64
}

// TileOf returns the coordinates of the tile containing p (points exactly
// on a boundary belong to the tile to their upper right).
func (t Tiling) TileOf(p geom.Point) Coord {
	return Coord{
		I: int(math.Floor(p.X / t.Side)),
		J: int(math.Floor(p.Y / t.Side)),
	}
}

// Center returns the center point of tile c.
func (t Tiling) Center(c Coord) geom.Point {
	return geom.Point{
		X: (float64(c.I) + 0.5) * t.Side,
		Y: (float64(c.J) + 0.5) * t.Side,
	}
}

// Rect returns the closed square of tile c.
func (t Tiling) Rect(c Coord) geom.Rect {
	return geom.Rect{
		Min: geom.Point{X: float64(c.I) * t.Side, Y: float64(c.J) * t.Side},
		Max: geom.Point{X: float64(c.I+1) * t.Side, Y: float64(c.J+1) * t.Side},
	}
}

// Local converts p into tile-local coordinates (origin at the tile center).
func (t Tiling) Local(c Coord, p geom.Point) geom.Point {
	return p.Sub(t.Center(c))
}

// Neighbor returns the adjacent tile in direction d.
func (c Coord) Neighbor(d Direction) Coord {
	dx, dy := d.Vec()
	return Coord{I: c.I + dx, J: c.J + dy}
}

// Map is the bijection φ between the tiles covering a W×H tile grid and the
// sites of a W×H box of Z²: tile (I0+i, J0+j) ↔ site (i, j). It realizes
// the paper's coupling between tile goodness and site openness.
type Map struct {
	Tiling Tiling
	I0, J0 int // tile coordinates of lattice site (0, 0)
	W, H   int // lattice extent
}

// NewMap builds the φ map for the tiles covering box with the given tile
// side: all tiles fully contained in the box (partial boundary tiles are
// excluded so every mapped tile sees the full Poisson process restricted to
// it).
func NewMap(box geom.Rect, side float64) Map {
	i0 := int(math.Ceil(box.Min.X / side))
	j0 := int(math.Ceil(box.Min.Y / side))
	i1 := int(math.Floor(box.Max.X/side)) - 1 // last full tile index
	j1 := int(math.Floor(box.Max.Y/side)) - 1
	w, h := i1-i0+1, j1-j0+1
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	return Map{Tiling: Tiling{Side: side}, I0: i0, J0: j0, W: w, H: h}
}

// Phi maps a tile to its lattice site; ok is false for tiles outside the
// mapped window.
func (m Map) Phi(c Coord) (x, y int, ok bool) {
	x, y = c.I-m.I0, c.J-m.J0
	return x, y, x >= 0 && x < m.W && y >= 0 && y < m.H
}

// PhiInv maps a lattice site back to its tile.
func (m Map) PhiInv(x, y int) Coord {
	return Coord{I: x + m.I0, J: y + m.J0}
}

// Index returns the slab index y·W + x of tile c — the tile layout of
// AssignTilesCSR and of the coupled lattice — and whether c lies in the
// mapped window.
func (m Map) Index(c Coord) (t int, ok bool) {
	x, y, ok := m.Phi(c)
	return y*m.W + x, ok
}

// TileAt returns the tile at slab index t, the inverse of Index.
func (m Map) TileAt(t int) Coord { return m.PhiInv(t%m.W, t/m.W) }

// Tiles returns the number of mapped tiles.
func (m Map) Tiles() int { return m.W * m.H }
