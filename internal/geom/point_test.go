package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Neg(); got != Pt(-1, -2) {
		t.Errorf("Neg = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
}

func TestPointDistances(t *testing.T) {
	p, q := Pt(0, 0), Pt(3, 4)
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := p.Dist2(q); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := q.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := q.Norm2(); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
}

func TestLerpMidpointCentroid(t *testing.T) {
	p, q := Pt(0, 0), Pt(2, 4)
	if got := p.Lerp(q, 0.5); got != Pt(1, 2) {
		t.Errorf("Lerp = %v", got)
	}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := Midpoint(p, q); got != Pt(1, 2) {
		t.Errorf("Midpoint = %v", got)
	}
}

func TestRotate(t *testing.T) {
	p := Pt(1, 0)
	got := p.Rotate(math.Pi / 2)
	if !almostEq(got.X, 0, 1e-12) || !almostEq(got.Y, 1, 1e-12) {
		t.Errorf("Rotate(π/2) = %v", got)
	}
	if a := Pt(0, 1).Angle(); !almostEq(a, math.Pi/2, 1e-12) {
		t.Errorf("Angle = %v", a)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(mod10(ax), mod10(ay)), Pt(mod10(bx), mod10(by)), Pt(mod10(cx), mod10(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDistanceSymmetryAndIdentity(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(mod10(ax), mod10(ay)), Pt(mod10(bx), mod10(by))
		if a.Dist(b) != b.Dist(a) {
			return false
		}
		return a.Dist(a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// mod10 maps arbitrary floats (incl. NaN/Inf from quick) into [-10, 10].
func mod10(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 10)
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(2, 3), Pt(0, 1))
	if r.Min != Pt(0, 1) || r.Max != Pt(2, 3) {
		t.Fatalf("NewRect normalization: %v", r)
	}
	if r.Width() != 2 || r.Height() != 2 || r.Area() != 4 {
		t.Errorf("dims: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if r.Center() != Pt(1, 2) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Pt(0, 1)) || !r.Contains(Pt(2, 3)) || !r.Contains(Pt(1, 2)) {
		t.Error("Contains should include boundary and interior")
	}
	if r.Contains(Pt(2.01, 2)) {
		t.Error("Contains should exclude outside points")
	}
	sq := Square(Pt(1, 1), 2)
	if sq.Min != Pt(0, 0) || sq.Max != Pt(2, 2) {
		t.Errorf("Square = %v", sq)
	}
	b := Box(3, 4)
	if b.Area() != 12 {
		t.Errorf("Box area = %v", b.Area())
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(2, 2))
	b := NewRect(Pt(1, 1), Pt(3, 3))
	got, ok := a.Intersect(b)
	if !ok || got != NewRect(Pt(1, 1), Pt(2, 2)) {
		t.Errorf("Intersect = %v ok=%v", got, ok)
	}
	if u := a.Union(b); u != NewRect(Pt(0, 0), Pt(3, 3)) {
		t.Errorf("Union = %v", u)
	}
	c := NewRect(Pt(5, 5), Pt(6, 6))
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint rects should not intersect")
	}
	if a.Intersects(c) {
		t.Error("Intersects(disjoint) = true")
	}
	if !a.Intersects(b) {
		t.Error("Intersects(overlap) = false")
	}
	// Touching edges count as intersecting (closed sets).
	d := NewRect(Pt(2, 0), Pt(3, 2))
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
}

func TestRectDistClamp(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2, 2))
	if got := r.Clamp(Pt(-1, 1)); got != Pt(0, 1) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.DistToPoint(Pt(-3, 1)); got != 3 {
		t.Errorf("DistToPoint = %v", got)
	}
	if got := r.DistToPoint(Pt(1, 1)); got != 0 {
		t.Errorf("DistToPoint(inside) = %v", got)
	}
	if got := r.MaxDistToPoint(Pt(0, 0)); !almostEq(got, math.Sqrt(8), 1e-12) {
		t.Errorf("MaxDistToPoint = %v", got)
	}
	if got := r.MaxDistToPoint(Pt(1, 1)); !almostEq(got, math.Sqrt(2), 1e-12) {
		t.Errorf("MaxDistToPoint(center) = %v", got)
	}
}

func TestRectExpandContains(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(1, 1)).Expand(1)
	if r != NewRect(Pt(-1, -1), Pt(2, 2)) {
		t.Errorf("Expand = %v", r)
	}
	if !r.ContainsRect(NewRect(Pt(0, 0), Pt(1, 1))) {
		t.Error("ContainsRect inner failed")
	}
	if NewRect(Pt(0, 0), Pt(1, 1)).ContainsRect(r) {
		t.Error("inner should not contain outer")
	}
	corners := NewRect(Pt(0, 0), Pt(1, 2)).Corners()
	want := [4]Point{Pt(0, 0), Pt(1, 0), Pt(1, 2), Pt(0, 2)}
	if corners != want {
		t.Errorf("Corners = %v", corners)
	}
}

func TestCircleBasics(t *testing.T) {
	c := NewCircle(Pt(1, 1), 2)
	if !c.Contains(Pt(1, 1)) || !c.Contains(Pt(3, 1)) {
		t.Error("Contains center/boundary failed")
	}
	if c.Contains(Pt(3.01, 1)) {
		t.Error("Contains outside point")
	}
	if !almostEq(c.Area(), 4*math.Pi, 1e-12) {
		t.Errorf("Area = %v", c.Area())
	}
	if c.Bounds() != NewRect(Pt(-1, -1), Pt(3, 3)) {
		t.Errorf("Bounds = %v", c.Bounds())
	}
	if got := c.MaxDistToPoint(Pt(1, 5)); got != 6 {
		t.Errorf("MaxDistToPoint = %v", got)
	}
}
