package geom

import "math"

// Region is a measurable subset of R² supporting point membership and a
// bounding box. The tile-region families of the paper (center disks, relay
// regions, intersections of disk families) are all expressed as Regions.
type Region interface {
	// Contains reports whether p belongs to the region.
	Contains(p Point) bool
	// Bounds returns a rectangle containing the region. It need not be
	// tight, but tighter bounds make Monte-Carlo area estimates cheaper.
	Bounds() Rect
}

// Rect and Circle implement Region.
var (
	_ Region = Rect{}
	_ Region = Circle{}
)

// Bounds returns the rectangle itself (a Rect is its own bounding box).
func (r Rect) Bounds() Rect { return r }

// EmptyRegion is the empty set.
type EmptyRegion struct{}

// Contains always reports false.
func (EmptyRegion) Contains(Point) bool { return false }

// Bounds returns a degenerate rectangle at the origin.
func (EmptyRegion) Bounds() Rect { return Rect{} }

// Intersection is the intersection of a list of regions.
type Intersection []Region

// Contains reports whether p belongs to every constituent region.
func (s Intersection) Contains(p Point) bool {
	for _, r := range s {
		if !r.Contains(p) {
			return false
		}
	}
	return true
}

// Bounds returns the intersection of the constituent bounding boxes (empty
// slice → degenerate rect at origin).
func (s Intersection) Bounds() Rect {
	if len(s) == 0 {
		return Rect{}
	}
	out := s[0].Bounds()
	for _, r := range s[1:] {
		var ok bool
		out, ok = out.Intersect(r.Bounds())
		if !ok {
			return Rect{}
		}
	}
	return out
}

// Union is the union of a list of regions.
type Union []Region

// Contains reports whether p belongs to at least one constituent region.
func (s Union) Contains(p Point) bool {
	for _, r := range s {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Bounds returns the union of the constituent bounding boxes.
func (s Union) Bounds() Rect {
	if len(s) == 0 {
		return Rect{}
	}
	out := s[0].Bounds()
	for _, r := range s[1:] {
		out = out.Union(r.Bounds())
	}
	return out
}

// Difference is the set difference A \ B.
type Difference struct {
	A, B Region
}

// Contains reports whether p ∈ A and p ∉ B.
func (d Difference) Contains(p Point) bool {
	return d.A.Contains(p) && !d.B.Contains(p)
}

// Bounds returns A's bounding box (difference can only shrink A).
func (d Difference) Bounds() Rect { return d.A.Bounds() }

// DiskIntersectionHull is the set of points within distance R of EVERY point
// of each of the given base regions: ∩_{q ∈ base_i, i} disk(q, R). This is
// exactly the construct used by the paper's relay-region definitions
// ("the intersection of all circles of unit radius centred at points in
// C0(t) and El(tr)").
//
// Membership is decidable exactly when every base region has a computable
// farthest-point distance; we support Circle and Rect bases analytically and
// fall back to sampling the base boundary for arbitrary regions.
type DiskIntersectionHull struct {
	Bases []Region
	R     float64
}

// Contains reports whether p is within distance R of every point of every
// base region.
func (h DiskIntersectionHull) Contains(p Point) bool {
	for _, b := range h.Bases {
		if maxDistToRegion(p, b) > h.R {
			return false
		}
	}
	return true
}

// Bounds returns a bounding box: the intersection of base bounding boxes
// each expanded by R (a point farther than R from a base's bounding box is
// certainly farther than R from some base point only if the base is
// non-empty; callers use this with non-empty bases).
func (h DiskIntersectionHull) Bounds() Rect {
	if len(h.Bases) == 0 {
		return Rect{}
	}
	out := h.Bases[0].Bounds().Expand(h.R)
	for _, b := range h.Bases[1:] {
		var ok bool
		out, ok = out.Intersect(b.Bounds().Expand(h.R))
		if !ok {
			return Rect{}
		}
	}
	return out
}

// maxDistToRegion returns the maximum distance from p to any point of r for
// the supported shapes, and a conservative corner-based bound otherwise.
func maxDistToRegion(p Point, r Region) float64 {
	switch v := r.(type) {
	case Circle:
		return v.MaxDistToPoint(p)
	case Rect:
		return v.MaxDistToPoint(p)
	case Intersection:
		// Max distance to an intersection is at most the min over members'
		// max distances (the intersection is inside each member). This is an
		// upper bound, which keeps DiskIntersectionHull conservative (it may
		// under-approximate the true hull but never over-approximates).
		best := math.Inf(1)
		for _, m := range v {
			if d := maxDistToRegion(p, m); d < best {
				best = d
			}
		}
		return best
	default:
		return r.Bounds().MaxDistToPoint(p)
	}
}

// Annulus is the set of points with rInner ≤ d(p, center) ≤ rOuter.
type Annulus struct {
	Center         Point
	RInner, ROuter float64
}

// Contains reports whether p lies in the closed annulus.
func (a Annulus) Contains(p Point) bool {
	d2 := a.Center.Dist2(p)
	return d2 >= a.RInner*a.RInner && d2 <= a.ROuter*a.ROuter
}

// Bounds returns the outer disk's bounding box.
func (a Annulus) Bounds() Rect {
	return Circle{a.Center, a.ROuter}.Bounds()
}

// Translate returns a region shifted by the vector d. Supported shapes are
// translated analytically; arbitrary regions are wrapped.
func Translate(r Region, d Point) Region {
	switch v := r.(type) {
	case Circle:
		return Circle{v.Center.Add(d), v.R}
	case Rect:
		return Rect{v.Min.Add(d), v.Max.Add(d)}
	case EmptyRegion:
		return v
	case Intersection:
		out := make(Intersection, len(v))
		for i, m := range v {
			out[i] = Translate(m, d)
		}
		return out
	case Union:
		out := make(Union, len(v))
		for i, m := range v {
			out[i] = Translate(m, d)
		}
		return out
	case Difference:
		return Difference{Translate(v.A, d), Translate(v.B, d)}
	case Annulus:
		return Annulus{v.Center.Add(d), v.RInner, v.ROuter}
	default:
		return translated{r, d}
	}
}

type translated struct {
	base Region
	d    Point
}

func (t translated) Contains(p Point) bool { return t.base.Contains(p.Sub(t.d)) }
func (t translated) Bounds() Rect {
	b := t.base.Bounds()
	return Rect{b.Min.Add(t.d), b.Max.Add(t.d)}
}
