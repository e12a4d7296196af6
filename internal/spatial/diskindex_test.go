package spatial

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// TestDiskIndexVisitsCoveringDisks is the index's property test: under
// random registrations, re-registrations and clears, a query at q lists
// every registered disk that contains q, lists each slot at most once, and
// lists no unregistered slot. Centres and queries include points on cell
// edges, points outside the bounds and NaN/±Inf coordinates; radii include
// zero, exact cell multiples, +Inf, NaN and negative values.
func TestDiskIndexVisitsCoveringDisks(t *testing.T) {
	box := geom.Box(4, 4)
	const cell, n = 0.5, 60
	inf, nan := math.Inf(1), math.NaN()
	gen := rng.New(91)
	coord := func() float64 {
		switch r := gen.Float64(); {
		case r < 0.3:
			return float64(gen.IntN(11)) * cell // a cell edge, 0 and 4 included
		case r < 0.4:
			return []float64{nan, inf, -inf, -1e300, 1e300}[gen.IntN(5)]
		default:
			return gen.Float64()*6 - 1 // a quarter of them outside the bounds
		}
	}
	radius2 := func() float64 {
		switch r := gen.Float64(); {
		case r < 0.15:
			c := float64(gen.IntN(4)) * cell
			return c * c
		case r < 0.25:
			return []float64{0, inf, nan, -1, 1e300}[gen.IntN(5)]
		default:
			r := gen.Float64() * 1.5
			return r * r
		}
	}
	// Fixed cases first: each disk alone must be listed at its query.
	for _, c := range []struct {
		centre geom.Point
		r2     float64
		q      geom.Point
	}{
		{geom.Pt(-inf, 2), inf, geom.Pt(3, 3)},       // −∞ + ∞ is NaN
		{geom.Pt(2, 2), inf, geom.Pt(1e300, -1e300)}, // every cell
		{geom.Pt(1, 1), 0, geom.Pt(1, 1)},            // a point on a cell corner
		{geom.Pt(0.5, 0.5), 0.25, geom.Pt(1, 0.5)},   // boundary on a cell edge
		{geom.Pt(-3, 2), 9, geom.Pt(0, 2)},           // centre outside the bounds
		{geom.Pt(5, 5), 2, geom.Pt(4, 4)},            // the same, past the far corner
	} {
		x := NewDiskIndex(box, cell, 1)
		x.Set(0, c.centre, c.r2)
		if c.centre.Dist2(c.q) > c.r2 {
			t.Fatalf("case %+v: the disk does not contain q", c)
		}
		if got := x.AppendAt(c.q, nil); !slices.Equal(got, []int32{0}) {
			t.Fatalf("disk (%v, r² %v) not listed at %v: %v", c.centre, c.r2, c.q, got)
		}
	}

	// A zero-radius disk and a query across a cell edge whose squared
	// offset underflows to 0: only the absolute slack files the disk there.
	tiny, ulp := 0x1p-996, 0x1p-1048
	x := NewDiskIndex(geom.Rect{Max: geom.Pt(8*tiny, 8*tiny)}, tiny, 1)
	c, q := geom.Pt(tiny-ulp, 0), geom.Pt(tiny+ulp, 0)
	x.Set(0, c, 0)
	if got := x.AppendAt(q, nil); c.Dist2(q) != 0 || !slices.Equal(got, []int32{0}) {
		t.Fatalf("underflowing offset: Dist2 %v, listed %v", c.Dist2(q), got)
	}

	x = NewDiskIndex(box, cell, n)
	centre := make([]geom.Point, n)
	r2 := make([]float64, n)
	registered := make([]bool, n)
	var got []int32
	for round := 0; round < 300; round++ {
		for op := 0; op < 8; op++ {
			i := int32(gen.IntN(n))
			if gen.Float64() < 0.15 {
				x.Clear(i)
				registered[i] = false
				continue
			}
			centre[i], r2[i] = geom.Pt(coord(), coord()), radius2()
			if gen.Float64() < 0.2 { // a small move, often within the same cell box
				centre[i] = geom.Pt(centre[i].X+gen.Float64()*1e-3, centre[i].Y)
			}
			x.Set(i, centre[i], r2[i])
			registered[i] = r2[i] >= 0
		}
		for qi := 0; qi < 12; qi++ {
			q := geom.Pt(coord(), coord())
			if qi == 0 && registered[round%n] {
				q = centre[round%n] // the centre of a registered disk
			}
			got = x.AppendAt(q, got[:0])
			listed := make([]bool, n)
			for _, i := range got {
				if listed[i] || !registered[i] {
					t.Fatalf("round %d, q %v: slot %d listed twice or unregistered (%v)", round, q, i, got)
				}
				listed[i] = true
			}
			for i := range centre {
				if registered[i] && centre[i].Dist2(q) <= r2[i] && !listed[i] {
					t.Fatalf("round %d: disk %d (centre %v, r² %v) contains %v but is not listed: %v",
						round, i, centre[i], r2[i], q, got)
				}
			}
		}
	}
}

// TestDiskIndexWarmAllocs: once the cells have grown to their working set,
// re-registering disks back and forth and querying allocates nothing.
func TestDiskIndexWarmAllocs(t *testing.T) {
	box := geom.Box(10, 10)
	pts := dgRandomPoints(400, box, 93, 0)
	x := NewDiskIndex(box, CellSize(box, len(pts)), len(pts))
	var buf []int32
	cycle := func() {
		for _, r2 := range []float64{0.04, 0.3} {
			for i, p := range pts {
				x.Set(int32(i), p, r2)
			}
			for _, p := range pts[:50] {
				buf = x.AppendAt(p, buf[:0])
			}
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Fatalf("warm re-registration allocates %.1f per cycle, want 0", a)
	}
}
