package geom

import (
	"math"
	"strings"
	"testing"
)

func TestStringers(t *testing.T) {
	if s := Pt(1, 2).String(); !strings.Contains(s, "1") || !strings.Contains(s, "2") {
		t.Errorf("Point.String = %q", s)
	}
	if s := NewRect(Pt(0, 0), Pt(1, 1)).String(); !strings.Contains(s, "(0, 0)") {
		t.Errorf("Rect.String = %q", s)
	}
	if s := NewCircle(Pt(0, 0), 2).String(); !strings.Contains(s, "r=2") {
		t.Errorf("Circle.String = %q", s)
	}
}

func TestUnionAndDifferenceBounds(t *testing.T) {
	u := Union{NewCircle(Pt(0, 0), 1), NewCircle(Pt(3, 0), 1)}
	b := u.Bounds()
	if b.Min.X > -1+1e-12 || b.Max.X < 4-1e-12 {
		t.Errorf("union bounds = %v", b)
	}
	if (Union{}).Bounds().Area() != 0 {
		t.Error("empty union bounds should be degenerate")
	}
	d := Difference{A: NewCircle(Pt(0, 0), 2), B: NewCircle(Pt(0, 0), 1)}
	if d.Bounds() != NewCircle(Pt(0, 0), 2).Bounds() {
		t.Error("difference bounds should be A's bounds")
	}
}

func TestDiskIntersectionHullBounds(t *testing.T) {
	h := DiskIntersectionHull{
		Bases: []Region{NewCircle(Pt(0, 0), 0.2), NewCircle(Pt(1, 0), 0.2)},
		R:     1,
	}
	b := h.Bounds()
	// Bounds must contain the true hull (which contains the midpoint).
	if !b.Contains(Pt(0.5, 0)) {
		t.Errorf("hull bounds %v miss the midpoint", b)
	}
	// Empty base list → degenerate bounds.
	if (DiskIntersectionHull{R: 1}).Bounds().Area() != 0 {
		t.Error("empty hull bounds should be degenerate")
	}
	// Far-apart bases → empty bounds rect.
	far := DiskIntersectionHull{
		Bases: []Region{NewCircle(Pt(0, 0), 0.1), NewCircle(Pt(10, 0), 0.1)},
		R:     1,
	}
	if far.Bounds().Area() > 0 {
		t.Errorf("far-apart hull bounds should be empty, got %v", far.Bounds())
	}
}

func TestMaxDistToRegionVariants(t *testing.T) {
	p := Pt(0, 0)
	// Circle: d(center) + r.
	if got := maxDistToRegion(p, NewCircle(Pt(3, 0), 1)); math.Abs(got-4) > 1e-12 {
		t.Errorf("circle max dist = %v", got)
	}
	// Rect: farthest corner.
	if got := maxDistToRegion(p, NewRect(Pt(1, 1), Pt(2, 2))); math.Abs(got-math.Sqrt(8)) > 1e-12 {
		t.Errorf("rect max dist = %v", got)
	}
	// Intersection: min over members (upper bound for the intersection).
	inter := Intersection{NewCircle(Pt(3, 0), 1), NewCircle(Pt(3, 0), 5)}
	if got := maxDistToRegion(p, inter); math.Abs(got-4) > 1e-12 {
		t.Errorf("intersection max dist = %v", got)
	}
	// Fallback (arbitrary region): bounding-box corner distance.
	ann := Annulus{Center: Pt(3, 0), RInner: 0.5, ROuter: 1}
	if got := maxDistToRegion(p, ann); math.Abs(got-math.Hypot(4, 1)) > 1e-12 {
		t.Errorf("fallback max dist = %v", got)
	}
	// Hull membership via an Intersection base exercises the same path.
	h := DiskIntersectionHull{Bases: []Region{inter}, R: 4.5}
	if !h.Contains(p) {
		t.Error("hull should contain origin (max dist 4 ≤ 4.5)")
	}
}

func TestTranslateFallbackAndEmpty(t *testing.T) {
	// EmptyRegion translation is still empty.
	e := Translate(EmptyRegion{}, Pt(1, 1))
	if e.Contains(Pt(1, 1)) {
		t.Error("translated empty region contains a point")
	}
	// Arbitrary region goes through the wrapper.
	ann := Annulus{Center: Pt(0, 0), RInner: 1, ROuter: 2}
	tr := Translate(Translate(ann, Pt(5, 0)), Pt(0, 3)) // nested wrappers OK
	if !tr.Contains(Pt(6.5, 3)) || tr.Contains(Pt(5, 3)) {
		t.Error("translated annulus membership wrong")
	}
	b := tr.Bounds()
	if !b.Contains(Pt(5, 3)) || !b.Contains(Pt(7, 5)) {
		t.Errorf("translated bounds = %v", b)
	}
	// Hull translation via wrapper.
	h := DiskIntersectionHull{Bases: []Region{NewCircle(Pt(0, 0), 0.2)}, R: 1}
	th := Translate(h, Pt(2, 0))
	if !th.Contains(Pt(2, 0)) || th.Contains(Pt(0, 0)) {
		t.Error("translated hull membership wrong")
	}
}

func TestGridAreaDegenerate(t *testing.T) {
	if GridArea(EmptyRegion{}, 10) != 0 {
		t.Error("grid area of empty region")
	}
	if GridArea(NewCircle(Pt(0, 0), 1), 0) != 0 {
		t.Error("grid area with n=0")
	}
}
