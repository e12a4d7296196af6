package geom

import (
	"math"
	"math/rand/v2"
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

// hullByDefinition reports whether p is within r of every sampled point of
// the disk c (its boundary at fine angular steps, where the farthest point
// lies, plus its centre): the definition the closed form replaces.
func hullByDefinition(p Point, c Circle, r float64) bool {
	if p.Dist(c.Center) > r {
		return false
	}
	for i := 0; i < 720; i++ {
		theta := 2 * math.Pi * float64(i) / 720
		q := c.Center.Add(Pt(c.R*math.Cos(theta), c.R*math.Sin(theta)))
		if p.Dist(q) > r {
			return false
		}
	}
	return true
}

func TestDiskIntersectionHullOfSingleDisk(t *testing.T) {
	// The set of points within distance 1 of every point of a radius-r disk
	// centered at c is the radius (1−r) disk at c, i.e. MaxDistToPoint ≤ 1.
	// This identity is the crux of the paper's geometric defect (DESIGN.md
	// §2); pin it down.
	base := NewCircle(Pt(0, 0), 0.5)
	if base.MaxDistToPoint(Pt(0.49, 0)) > 1 {
		t.Error("hull should contain interior of shrunken disk")
	}
	if base.MaxDistToPoint(Pt(0.51, 0)) <= 1 {
		t.Error("hull should exclude points beyond 1−r")
	}
	// Radius exactly 1/2: hull == C0, so hull \ C0 is empty — the literal
	// paper construction's relay region.
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 10000; i++ {
		p := Pt(rng.Float64()*4-2, rng.Float64()*4-2)
		if base.MaxDistToPoint(p) <= 1 && !base.Contains(p) {
			t.Fatalf("literal relay region should be empty; contains %v", p)
		}
	}
	// Away from the hull boundary the closed form agrees with the definition.
	small := NewCircle(Pt(0.3, -0.2), 0.3)
	for i := 0; i < 2000; i++ {
		p := Pt(rng.Float64()*3-1.5, rng.Float64()*3-1.5)
		if d := small.Center.Dist(p); math.Abs(d-0.7) < 1e-3 {
			continue
		}
		if got, want := small.MaxDistToPoint(p) <= 1, hullByDefinition(p, small, 1); got != want {
			t.Fatalf("closed form %v vs definition %v at %v", got, want, p)
		}
	}
}

func TestDiskIntersectionHullTwoBases(t *testing.T) {
	// Points within 1 of all of disk(0, 0.2) and all of disk(1, 0.2):
	// intersection of disk(0, 0.8) and disk(1, 0.8).
	bases := []Circle{NewCircle(Pt(0, 0), 0.2), NewCircle(Pt(1, 0), 0.2)}
	in := func(p Point) bool {
		for _, b := range bases {
			if b.MaxDistToPoint(p) > 1 {
				return false
			}
		}
		return true
	}
	if !in(Pt(0.5, 0)) {
		t.Error("hull should contain midpoint")
	}
	if in(Pt(-0.9, 0)) || in(Pt(1.9, 0)) {
		t.Error("hull should exclude extremes")
	}
	// Every hull member must be within R of every base point (definition).
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 2000; i++ {
		p := Pt(rng.Float64()*1.6-0.3, rng.Float64()*1.6-0.8)
		if !in(p) {
			continue
		}
		for j := 0; j < 50; j++ {
			theta := rng.Float64() * 2 * math.Pi
			r := 0.2 * math.Sqrt(rng.Float64())
			for _, b := range bases {
				q := b.Center.Add(Pt(r*math.Cos(theta), r*math.Sin(theta)))
				if p.Dist(q) > 1+1e-9 {
					t.Fatalf("hull point %v farther than R from base point %v", p, q)
				}
			}
		}
	}
}
