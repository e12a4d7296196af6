package geom

import (
	"fmt"
	"math"
)

// Circle is a closed disk with the given center and radius. (The paper uses
// "circle" for both curves and disks; here Circle always means the closed
// disk, matching how the regions are used.)
type Circle struct {
	Center Point
	R      float64
}

// NewCircle returns the closed disk centered at c with radius r.
func NewCircle(c Point, r float64) Circle { return Circle{c, r} }

// Contains reports whether p lies in the closed disk.
func (c Circle) Contains(p Point) bool {
	return c.Center.Dist2(p) <= c.R*c.R
}

// Area returns πR².
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// MaxDistToPoint returns the largest distance from p to any point of the
// disk: d(p, center) + R.
func (c Circle) MaxDistToPoint(p Point) float64 {
	return c.Center.Dist(p) + c.R
}

// String implements fmt.Stringer.
func (c Circle) String() string {
	return fmt.Sprintf("disk(%v, r=%.6g)", c.Center, c.R)
}
