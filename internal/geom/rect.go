package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY]. Rectangles
// are closed; a degenerate rectangle (Min == Max in a coordinate) has zero
// area but still contains its boundary points.
type Rect struct {
	Min, Max Point
}

// NewRect builds the rectangle spanned by any two opposite corners.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Square returns the axis-aligned square with the given center and side.
func Square(center Point, side float64) Rect {
	h := side / 2
	return Rect{Point{center.X - h, center.Y - h}, Point{center.X + h, center.Y + h}}
}

// Box returns the rectangle [0, w] × [0, h].
func Box(w, h float64) Rect { return Rect{Point{0, 0}, Point{w, h}} }

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of the rectangle.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies in the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersect returns the intersection rectangle and whether it is non-empty.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}
	if out.Min.X > out.Max.X || out.Min.Y > out.Max.Y {
		return Rect{}, false
	}
	return out, true
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand returns r grown by d on every side (shrunk for negative d; the
// result may be empty, in which case Area() ≤ 0).
func (r Rect) Expand(d float64) Rect {
	return Rect{Point{r.Min.X - d, r.Min.Y - d}, Point{r.Max.X + d, r.Max.Y + d}}
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v, %v]", r.Min, r.Max)
}
