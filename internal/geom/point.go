// Package geom provides the 2D geometry substrate used throughout the
// repository: points, vectors, rectangles, circles, a small region algebra,
// and analytic/Monte-Carlo area computation.
//
// Everything is float64-based and allocation-free on the hot paths. The
// package is deliberately self-contained: the Go ecosystem has no canonical
// computational-geometry library, and the constructions in the paper need
// only a modest, well-tested set of primitives.
package geom

import (
	"fmt"
	"math"
)

// Point is a point (or free vector) in R².
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q (vector addition).
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns s·p.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y} }

// Neg returns −p.
func (p Point) Neg() Point { return Point{-p.X, -p.Y} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the 3D cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean norm |p|.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean norm |p|².
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance d(p, q).
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance d(p, q)².
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point (1−t)·p + t·q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Angle returns the angle of the vector p in radians, in (−π, π].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// Rotate returns p rotated by theta radians about the origin.
func (p Point) Rotate(theta float64) Point {
	s, c := math.Sincos(theta)
	return Point{c*p.X - s*p.Y, s*p.X + c*p.Y}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Midpoint returns the midpoint of segment pq.
func Midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }
