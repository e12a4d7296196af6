package spatial

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/pointprocess"
	"repro/internal/rng"
)

func sortedCopy(xs []int32) []int32 {
	out := append([]int32(nil), xs...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomPoints(n int, seed rng.Seed) []geom.Point {
	g := rng.New(seed)
	return pointprocess.Binomial(geom.Box(10, 10), n, g)
}

// newDynGrid indexes pts in a kinetic grid over their own bounding box.
func newDynGrid(pts []geom.Point, cell float64) *DynGrid {
	return NewDynGrid(pts, FiniteBounds(pts), cell)
}

// sameDistances checks that two kNN results agree as multisets of distances
// (ties at the boundary may legitimately resolve to different indices).
func sameDistances(pts []geom.Point, q geom.Point, a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	da := make([]float64, len(a))
	db := make([]float64, len(b))
	for i := range a {
		da[i] = pts[a[i]].Dist2(q)
		db[i] = pts[b[i]].Dist2(q)
	}
	sort.Float64s(da)
	sort.Float64s(db)
	for i := range da {
		if math.Abs(da[i]-db[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestKNearestSortedByDistance(t *testing.T) {
	pts := randomPoints(300, 9)
	grid := newDynGrid(pts, 1.0)
	q := geom.Pt(5, 5)
	res := grid.KNearestInto(q, 15, -1, new(KNNScratch), nil)
	prev := -1.0
	for _, i := range res {
		d := pts[i].Dist2(q)
		if d < prev {
			t.Fatalf("results not sorted by distance: %v", res)
		}
		prev = d
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	if nx, ny := NewGrid(nil, 1).Dims(); nx != 1 || ny != 1 {
		t.Errorf("empty grid Dims = %d×%d, want 1×1", nx, ny)
	}
	empty := newDynGrid(nil, 1)
	if empty.Len() != 0 {
		t.Error("empty grid Len")
	}
	if got := empty.Within(geom.Pt(0, 0), 5, nil); len(got) != 0 {
		t.Error("empty grid Within should be empty")
	}
	if got := empty.KNearestInto(geom.Pt(0, 0), 3, -1, new(KNNScratch), nil); len(got) != 0 {
		t.Error("empty grid KNearest should be empty")
	}
	if got := empty.NearestWhere(geom.Pt(0, 0), func(int32) bool { return true }); got != -1 {
		t.Errorf("empty grid NearestWhere = %d, want -1", got)
	}

	// Single point.
	one := []geom.Point{geom.Pt(1, 1)}
	g1 := newDynGrid(one, 1)
	if got := g1.KNearestInto(geom.Pt(0, 0), 3, -1, new(KNNScratch), nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-point grid KNearest = %v", got)
	}
	if got := g1.KNearestInto(geom.Pt(0, 0), 3, 0, new(KNNScratch), nil); len(got) != 0 {
		t.Errorf("excluding the only point should yield nothing, got %v", got)
	}

	// All points identical.
	same := []geom.Point{geom.Pt(2, 2), geom.Pt(2, 2), geom.Pt(2, 2)}
	gs := newDynGrid(same, 0.5)
	if got := gs.Within(geom.Pt(2, 2), 0.1, nil); len(got) != 3 {
		t.Errorf("identical points Within = %v", got)
	}
	if got := gs.KNearestInto(geom.Pt(2, 2), 2, -1, new(KNNScratch), nil); !equalInt32(got, []int32{0, 1}) {
		t.Errorf("identical points KNearest = %v, want [0 1]", got)
	}
}

func TestKNearestFewerThanK(t *testing.T) {
	pts := randomPoints(5, 10)
	grid := newDynGrid(pts, 1)
	if got := grid.KNearestInto(geom.Pt(5, 5), 10, -1, new(KNNScratch), nil); len(got) != 5 {
		t.Errorf("k > n should return all points, got %d", len(got))
	}
}

func TestWithinRadiusZero(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}
	grid := newDynGrid(pts, 1)
	got := grid.Within(geom.Pt(1, 1), 0, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("radius-0 Within should return the exact point: %v", got)
	}
}

func TestGridCellSizeVariations(t *testing.T) {
	pts := randomPoints(300, 11)
	q := geom.Pt(4, 6)
	want := BruteWithin(pts, q, 1.5)
	for _, cell := range []float64{0.1, 0.5, 1.0, 3.0, 20.0} {
		// The static grid's cells partition the points, ascending in each.
		grid := NewGrid(pts, cell)
		nx, ny := grid.Dims()
		var all []int32
		for cy := 0; cy < ny; cy++ {
			for cx := 0; cx < nx; cx++ {
				c := grid.CellPoints(cx, cy)
				if !equalInt32(c, sortedCopy(c)) {
					t.Errorf("cell=%v: cell (%d, %d) not ascending: %v", cell, cx, cy, c)
				}
				all = append(all, c...)
			}
		}
		if all = sortedCopy(all); len(all) != len(pts) || all[0] != 0 || all[len(all)-1] != int32(len(pts)-1) {
			t.Errorf("cell=%v: cells hold %d points, want each of %d once", cell, len(all), len(pts))
		}
		dyn := newDynGrid(pts, cell)
		got := sortedCopy(dyn.Within(q, 1.5, nil))
		if !equalInt32(got, want) {
			t.Errorf("cell=%v: Within mismatch", cell)
		}
		gotK := dyn.KNearestInto(q, 7, -1, new(KNNScratch), nil)
		wantK := BruteKNearest(pts, q, 7, -1)
		if !sameDistances(pts, q, gotK, wantK) {
			t.Errorf("cell=%v: KNearest mismatch", cell)
		}
	}
}

func TestGridPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive cell size")
		}
	}()
	NewGrid(nil, 0)
}

// TestKNearestExactAgreementDegenerate checks index-exact agreement (not
// just distance multisets) between the grid and BruteKNearest on clustered
// and degenerate inputs: duplicate points force distance ties that only
// resolve identically because both break ties by index.
func TestKNearestExactAgreementDegenerate(t *testing.T) {
	cases := map[string][]geom.Point{
		"duplicates": {
			geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1),
			geom.Pt(2, 2), geom.Pt(2, 2), geom.Pt(0, 3),
		},
		"collinear": {
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0),
			geom.Pt(4, 0), geom.Pt(5, 0), geom.Pt(6, 0), geom.Pt(7, 0),
		},
		"clustered": {
			geom.Pt(0, 0), geom.Pt(1e-9, 0), geom.Pt(0, 1e-9), geom.Pt(1e-9, 1e-9),
			geom.Pt(5, 5), geom.Pt(5+1e-9, 5), geom.Pt(5, 5+1e-9),
		},
		"symmetric-ties": {
			geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 1), geom.Pt(0, -1),
			geom.Pt(2, 0), geom.Pt(-2, 0), geom.Pt(0, 2), geom.Pt(0, -2),
		},
		"lattice-duplicates": {
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(0, 1), geom.Pt(1, 1),
			geom.Pt(2, 1), geom.Pt(0, 2), geom.Pt(1, 2), geom.Pt(2, 2), geom.Pt(1, 1),
			geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(1, 0), geom.Pt(1, 1),
		},
	}
	for name, pts := range cases {
		grid := newDynGrid(pts, 0.8)
		queries := append([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2.5, 0.5)}, pts...)
		for _, q := range queries {
			// k sweeps through and beyond n to cover the k > n case.
			for k := 1; k <= len(pts)+2; k++ {
				for _, exclude := range []int{-1, 0, len(pts) - 1} {
					want := BruteKNearest(pts, q, k, exclude)
					if got := grid.KNearestInto(q, k, exclude, new(KNNScratch), nil); !equalInt32(got, want) {
						t.Fatalf("%s: grid KNearest(%v, %d, %d) = %v want %v", name, q, k, exclude, got, want)
					}
				}
			}
		}
	}
}

// TestKNearestIntoMatchesAllocating checks that the buffered queries with a
// shared scratch reproduce fresh-scratch answers exactly, including when dst
// is reused across queries.
func TestKNearestIntoMatchesAllocating(t *testing.T) {
	pts := randomPoints(600, 31)
	grid := newDynGrid(pts, 0.6)
	g := rng.New(32)
	var scratch KNNScratch
	var buf []int32
	for trial := 0; trial < 300; trial++ {
		q := geom.Pt(g.Float64()*12-1, g.Float64()*12-1)
		k := 1 + g.IntN(12)
		exclude := -1
		if trial%3 == 0 {
			exclude = g.IntN(len(pts))
		}
		buf = grid.KNearestInto(q, k, exclude, &scratch, buf[:0])
		if want := grid.KNearestInto(q, k, exclude, new(KNNScratch), nil); !equalInt32(buf, want) {
			t.Fatalf("grid Into mismatch at trial %d: %v want %v", trial, buf, want)
		}
	}
}

// TestQueryAllocationFree asserts the zero-alloc contract of the warm
// queries: the ring search visits cells in place and the heap and dst have
// reached steady state.
func TestQueryAllocationFree(t *testing.T) {
	pts := randomPoints(20000, 33)
	dyn := newDynGrid(pts, 0.3)
	var scratch KNNScratch
	var buf []int32
	q := geom.Pt(5, 5)
	odd := func(i int32) bool { return i%2 == 1 }
	// Warm up buffers.
	buf = dyn.KNearestInto(q, 16, -1, &scratch, buf[:0])
	buf = dyn.Within(q, 0.5, buf[:0])

	if a := testing.AllocsPerRun(100, func() {
		buf = dyn.KNearestInto(q, 16, -1, &scratch, buf[:0])
	}); a > 0 {
		t.Errorf("KNearestInto allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if dyn.NearestWhere(q, odd) < 0 {
			t.Fatal("NearestWhere found nothing")
		}
	}); a > 0 {
		t.Errorf("NearestWhere allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		buf = dyn.Within(q, 0.5, buf[:0])
	}); a > 0 {
		t.Errorf("Within allocates %v/op", a)
	}
}

func TestBruteKNearestNonPositiveK(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}
	if got := BruteKNearest(pts, geom.Pt(0, 0), 0, -1); len(got) != 0 {
		t.Errorf("k=0 should be empty, got %v", got)
	}
	if got := BruteKNearest(pts, geom.Pt(0, 0), -3, -1); len(got) != 0 {
		t.Errorf("k<0 should be empty, got %v", got)
	}
}
