package geom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestIntersectionUnionDifference(t *testing.T) {
	a := NewCircle(Pt(0, 0), 1)
	b := NewCircle(Pt(1, 0), 1)
	inter := Intersection{a, b}
	if !inter.Contains(Pt(0.5, 0)) {
		t.Error("intersection should contain midpoint")
	}
	if inter.Contains(Pt(-0.9, 0)) {
		t.Error("intersection should not contain a-only point")
	}
	uni := Union{a, b}
	if !uni.Contains(Pt(-0.9, 0)) || !uni.Contains(Pt(1.9, 0)) {
		t.Error("union membership failed")
	}
	if uni.Contains(Pt(0, 5)) {
		t.Error("union contains far point")
	}
	diff := Difference{A: a, B: b}
	if !diff.Contains(Pt(-0.9, 0)) {
		t.Error("difference should contain a-only point")
	}
	if diff.Contains(Pt(0.5, 0)) {
		t.Error("difference should not contain shared point")
	}
}

func TestIntersectionBounds(t *testing.T) {
	a := NewCircle(Pt(0, 0), 1)
	b := NewCircle(Pt(1, 0), 1)
	bounds := Intersection{a, b}.Bounds()
	// True intersection lies within x ∈ [0, 1].
	if bounds.Min.X > 0+1e-12 || bounds.Max.X < 1-1e-12 {
		t.Errorf("bounds too tight: %v", bounds)
	}
	// Disjoint bounding boxes give an empty bounds rect.
	c := NewCircle(Pt(10, 10), 1)
	db := Intersection{a, c}.Bounds()
	if db.Area() > 0 {
		t.Errorf("disjoint intersection bounds should be empty, got %v", db)
	}
	if (Intersection{}).Bounds().Area() != 0 {
		t.Error("empty intersection bounds should be degenerate")
	}
}

func TestEmptyRegion(t *testing.T) {
	var e EmptyRegion
	if e.Contains(Pt(0, 0)) {
		t.Error("empty region contains a point")
	}
	if e.Bounds().Area() != 0 {
		t.Error("empty region bounds non-degenerate")
	}
}

func TestDiskIntersectionHullOfSingleDisk(t *testing.T) {
	// The set of points within distance 1 of every point of a radius-r disk
	// centered at c is the radius (1−r) disk at c. This identity is the crux
	// of the paper's geometric defect (DESIGN.md §2); pin it down.
	base := NewCircle(Pt(0, 0), 0.5)
	hull := DiskIntersectionHull{Bases: []Region{base}, R: 1}
	if !hull.Contains(Pt(0.49, 0)) {
		t.Error("hull should contain interior of shrunken disk")
	}
	if hull.Contains(Pt(0.51, 0)) {
		t.Error("hull should exclude points beyond 1−r")
	}
	// Radius exactly 1/2: hull == C0, so hull \ C0 is empty — the literal
	// paper construction's relay region.
	relay := Difference{A: hull, B: base}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 10000; i++ {
		p := Pt(rng.Float64()*4-2, rng.Float64()*4-2)
		if relay.Contains(p) {
			t.Fatalf("literal relay region should be empty; contains %v", p)
		}
	}
}

func TestDiskIntersectionHullTwoBases(t *testing.T) {
	// Points within 1 of all of disk(0, 0.2) and all of disk(1, 0.2):
	// intersection of disk(0, 0.8) and disk(1, 0.8).
	hull := DiskIntersectionHull{
		Bases: []Region{NewCircle(Pt(0, 0), 0.2), NewCircle(Pt(1, 0), 0.2)},
		R:     1,
	}
	if !hull.Contains(Pt(0.5, 0)) {
		t.Error("hull should contain midpoint")
	}
	if hull.Contains(Pt(-0.9, 0)) || hull.Contains(Pt(1.9, 0)) {
		t.Error("hull should exclude extremes")
	}
	// Every hull member must be within R of every base point (definition).
	rng := rand.New(rand.NewPCG(5, 6))
	b := hull.Bounds()
	for i := 0; i < 2000; i++ {
		p := Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
		if !hull.Contains(p) {
			continue
		}
		for j := 0; j < 50; j++ {
			theta := rng.Float64() * 2 * math.Pi
			r := 0.2 * math.Sqrt(rng.Float64())
			for _, c := range []Point{Pt(0, 0), Pt(1, 0)} {
				q := c.Add(Pt(r*math.Cos(theta), r*math.Sin(theta)))
				if p.Dist(q) > 1+1e-9 {
					t.Fatalf("hull point %v farther than R from base point %v", p, q)
				}
			}
		}
	}
}

func TestAnnulus(t *testing.T) {
	a := Annulus{Center: Pt(0, 0), RInner: 1, ROuter: 2}
	if a.Contains(Pt(0.5, 0)) {
		t.Error("annulus contains inner hole")
	}
	if !a.Contains(Pt(1.5, 0)) || !a.Contains(Pt(1, 0)) || !a.Contains(Pt(2, 0)) {
		t.Error("annulus membership failed")
	}
	if a.Contains(Pt(2.1, 0)) {
		t.Error("annulus contains outside point")
	}
	if a.Bounds() != NewRect(Pt(-2, -2), Pt(2, 2)) {
		t.Errorf("annulus bounds = %v", a.Bounds())
	}
}

func TestTranslateShapes(t *testing.T) {
	d := Pt(3, 4)
	cases := []struct {
		name string
		r    Region
		in   Point // contained before translation
		out  Point // not contained before translation
	}{
		{"circle", NewCircle(Pt(0, 0), 1), Pt(0.5, 0), Pt(2, 0)},
		{"rect", NewRect(Pt(0, 0), Pt(1, 1)), Pt(0.5, 0.5), Pt(2, 2)},
		{"inter", Intersection{NewCircle(Pt(0, 0), 1), NewRect(Pt(0, 0), Pt(1, 1))}, Pt(0.3, 0.3), Pt(0.9, 0.9)},
		{"union", Union{NewCircle(Pt(0, 0), 0.5), NewCircle(Pt(1, 0), 0.5)}, Pt(1.2, 0), Pt(0.7, 0.4)},
		{"diff", Difference{NewCircle(Pt(0, 0), 1), NewCircle(Pt(0, 0), 0.5)}, Pt(0.8, 0), Pt(0.2, 0)},
		{"annulus", Annulus{Pt(0, 0), 0.5, 1}, Pt(0.8, 0), Pt(0.2, 0)},
	}
	for _, tc := range cases {
		tr := Translate(tc.r, d)
		if !tr.Contains(tc.in.Add(d)) {
			t.Errorf("%s: translated region missing translated member", tc.name)
		}
		if tr.Contains(tc.out.Add(d)) {
			t.Errorf("%s: translated region contains translated non-member", tc.name)
		}
		if tr.Contains(tc.in) && tc.r.Contains(tc.in.Add(d.Scale(2))) {
			t.Errorf("%s: translation did not move the region", tc.name)
		}
	}
}

func TestTranslatePropertyRandomized(t *testing.T) {
	f := func(px, py, dx, dy float64) bool {
		p := Pt(mod10(px), mod10(py))
		d := Pt(mod10(dx), mod10(dy))
		r := NewCircle(Pt(0, 0), 1.5)
		return Translate(r, d).Contains(p.Add(d)) == r.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMonteCarloAndGridArea(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	c := NewCircle(Pt(0, 0), 1)
	if got := MonteCarloArea(c, 300000, rng); math.Abs(got-math.Pi) > 0.03 {
		t.Errorf("MC area of unit disk = %v", got)
	}
	if got := GridArea(c, 600); math.Abs(got-math.Pi) > 0.01 {
		t.Errorf("grid area of unit disk = %v", got)
	}
	if got := Area(c); got != math.Pi {
		t.Errorf("analytic Area(circle) = %v", got)
	}
	if got := Area(NewRect(Pt(0, 0), Pt(2, 3))); got != 6 {
		t.Errorf("analytic Area(rect) = %v", got)
	}
	if got := Area(EmptyRegion{}); got != 0 {
		t.Errorf("Area(empty) = %v", got)
	}
	if got := Area(Intersection{c}); got != -1 {
		t.Errorf("Area(unsupported) should be -1, got %v", got)
	}
	if got := MonteCarloArea(EmptyRegion{}, 100, rng); got != 0 {
		t.Errorf("MC area of empty = %v", got)
	}
}

// MonteCarloArea is the sampling cross-check for GridArea: it estimates the
// area of an arbitrary region by uniform sampling of its bounding box with n
// samples. The standard error of the estimate is Area·sqrt((1−f)/(f·n))
// where f is the hit fraction.
func MonteCarloArea(r Region, n int, rng *rand.Rand) float64 {
	b := r.Bounds()
	w, h := b.Width(), b.Height()
	if w <= 0 || h <= 0 || n <= 0 {
		return 0
	}
	hits := 0
	for i := 0; i < n; i++ {
		p := Point{b.Min.X + rng.Float64()*w, b.Min.Y + rng.Float64()*h}
		if r.Contains(p) {
			hits++
		}
	}
	return w * h * float64(hits) / float64(n)
}
