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

func TestGridWithinMatchesBruteForce(t *testing.T) {
	pts := randomPoints(500, 1)
	grid := NewGrid(pts, 1.0)
	g := rng.New(2)
	for trial := 0; trial < 200; trial++ {
		q := geom.Pt(g.Float64()*12-1, g.Float64()*12-1)
		r := g.Float64() * 3
		got := sortedCopy(grid.Within(q, r, nil))
		want := BruteWithin(pts, q, r)
		if !equalInt32(got, want) {
			t.Fatalf("grid Within(%v, %v) = %v want %v", q, r, got, want)
		}
	}
}

func TestKDTreeWithinMatchesBruteForce(t *testing.T) {
	pts := randomPoints(500, 3)
	tree := NewKDTree(pts)
	g := rng.New(4)
	for trial := 0; trial < 200; trial++ {
		q := geom.Pt(g.Float64()*12-1, g.Float64()*12-1)
		r := g.Float64() * 3
		got := sortedCopy(tree.Within(q, r, nil))
		want := BruteWithin(pts, q, r)
		if !equalInt32(got, want) {
			t.Fatalf("kdtree Within(%v, %v) = %v want %v", q, r, got, want)
		}
	}
}

func TestGridKNearestMatchesBruteForce(t *testing.T) {
	pts := randomPoints(400, 5)
	grid := NewGrid(pts, 0.7)
	g := rng.New(6)
	for trial := 0; trial < 150; trial++ {
		q := pts[g.IntN(len(pts))]
		k := 1 + g.IntN(20)
		exclude := -1
		if trial%2 == 0 {
			// Exclude the query point itself, as the NN-graph builder does.
			for i, p := range pts {
				if p == q {
					exclude = i
					break
				}
			}
		}
		got := grid.KNearestInto(q, k, exclude, new(KNNScratch), nil)
		want := BruteKNearest(pts, q, k, exclude)
		if !sameDistances(pts, q, got, want) {
			t.Fatalf("grid KNearest(%v, %d, excl %d) = %v want %v", q, k, exclude, got, want)
		}
	}
}

func TestKDTreeKNearestMatchesBruteForce(t *testing.T) {
	pts := randomPoints(400, 7)
	tree := NewKDTree(pts)
	g := rng.New(8)
	for trial := 0; trial < 150; trial++ {
		q := geom.Pt(g.Float64()*10, g.Float64()*10)
		k := 1 + g.IntN(25)
		got := tree.KNearestInto(q, k, -1, new(KNNScratch), nil)
		want := BruteKNearest(pts, q, k, -1)
		if !sameDistances(pts, q, got, want) {
			t.Fatalf("kdtree KNearest(%v, %d) = %v want %v", q, k, got, want)
		}
	}
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
	grid := NewGrid(pts, 1.0)
	tree := NewKDTree(pts)
	q := geom.Pt(5, 5)
	for _, res := range [][]int32{grid.KNearestInto(q, 15, -1, new(KNNScratch), nil), tree.KNearestInto(q, 15, -1, new(KNNScratch), nil)} {
		prev := -1.0
		for _, i := range res {
			d := pts[i].Dist2(q)
			if d < prev {
				t.Fatalf("results not sorted by distance: %v", res)
			}
			prev = d
		}
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	grid := NewGrid(nil, 1)
	if grid.Len() != 0 {
		t.Error("empty grid Len")
	}
	if got := grid.Within(geom.Pt(0, 0), 5, nil); len(got) != 0 {
		t.Error("empty grid Within should be empty")
	}
	if got := grid.KNearestInto(geom.Pt(0, 0), 3, -1, new(KNNScratch), nil); len(got) != 0 {
		t.Error("empty grid KNearest should be empty")
	}
	tree := NewKDTree(nil)
	if got := tree.Within(geom.Pt(0, 0), 5, nil); len(got) != 0 {
		t.Error("empty kdtree Within should be empty")
	}
	if got := tree.KNearestInto(geom.Pt(0, 0), 3, -1, new(KNNScratch), nil); len(got) != 0 {
		t.Error("empty kdtree KNearest should be empty")
	}

	// Single point.
	one := []geom.Point{geom.Pt(1, 1)}
	g1 := NewGrid(one, 1)
	if got := g1.KNearestInto(geom.Pt(0, 0), 3, -1, new(KNNScratch), nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-point grid KNearest = %v", got)
	}
	if got := g1.KNearestInto(geom.Pt(0, 0), 3, 0, new(KNNScratch), nil); len(got) != 0 {
		t.Errorf("excluding the only point should yield nothing, got %v", got)
	}

	// All points identical.
	same := []geom.Point{geom.Pt(2, 2), geom.Pt(2, 2), geom.Pt(2, 2)}
	gs := NewGrid(same, 0.5)
	if got := gs.Within(geom.Pt(2, 2), 0.1, nil); len(got) != 3 {
		t.Errorf("identical points Within = %v", got)
	}
	ts := NewKDTree(same)
	if got := ts.KNearestInto(geom.Pt(2, 2), 2, -1, new(KNNScratch), nil); len(got) != 2 {
		t.Errorf("identical points KNearest = %v", got)
	}
}

func TestKNearestFewerThanK(t *testing.T) {
	pts := randomPoints(5, 10)
	grid := NewGrid(pts, 1)
	if got := grid.KNearestInto(geom.Pt(5, 5), 10, -1, new(KNNScratch), nil); len(got) != 5 {
		t.Errorf("k > n should return all points, got %d", len(got))
	}
	tree := NewKDTree(pts)
	if got := tree.KNearestInto(geom.Pt(5, 5), 10, -1, new(KNNScratch), nil); len(got) != 5 {
		t.Errorf("kdtree k > n should return all points, got %d", len(got))
	}
}

func TestWithinRadiusZero(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}
	grid := NewGrid(pts, 1)
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
		grid := NewGrid(pts, cell)
		got := sortedCopy(grid.Within(q, 1.5, nil))
		if !equalInt32(got, want) {
			t.Errorf("cell=%v: Within mismatch", cell)
		}
		gotK := grid.KNearestInto(q, 7, -1, new(KNNScratch), nil)
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

func BenchmarkGridWithin(b *testing.B) {
	pts := randomPoints(100000, 20)
	grid := NewGrid(pts, 1.0)
	g := rng.New(21)
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(g.Float64()*10, g.Float64()*10)
		buf = grid.Within(q, 1.0, buf[:0])
	}
}

func BenchmarkKDTreeWithin(b *testing.B) {
	pts := randomPoints(100000, 20)
	tree := NewKDTree(pts)
	g := rng.New(21)
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(g.Float64()*10, g.Float64()*10)
		buf = tree.Within(q, 1.0, buf[:0])
	}
}

func BenchmarkGridKNearest(b *testing.B) {
	pts := randomPoints(100000, 22)
	grid := NewGrid(pts, 0.2)
	g := rng.New(23)
	var scratch KNNScratch
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(g.Float64()*10, g.Float64()*10)
		buf = grid.KNearestInto(q, 10, -1, &scratch, buf[:0])
	}
}

func BenchmarkKDTreeKNearest(b *testing.B) {
	pts := randomPoints(100000, 22)
	tree := NewKDTree(pts)
	g := rng.New(23)
	var scratch KNNScratch
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(g.Float64()*10, g.Float64()*10)
		buf = tree.KNearestInto(q, 10, -1, &scratch, buf[:0])
	}
}

// TestKNearestExactAgreementDegenerate checks index-exact agreement (not
// just distance multisets) between both indexes and BruteKNearest on
// clustered and degenerate inputs: duplicate points force distance ties that
// only resolve identically because all three break ties by index.
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
	}
	for name, pts := range cases {
		grid := NewGrid(pts, 0.8)
		tree := NewKDTree(pts)
		queries := append([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2.5, 0.5)}, pts...)
		for _, q := range queries {
			// k sweeps through and beyond n to cover the k > n case.
			for k := 1; k <= len(pts)+2; k++ {
				for _, exclude := range []int{-1, 0, len(pts) - 1} {
					want := BruteKNearest(pts, q, k, exclude)
					if got := grid.KNearestInto(q, k, exclude, new(KNNScratch), nil); !equalInt32(got, want) {
						t.Fatalf("%s: grid KNearest(%v, %d, %d) = %v want %v", name, q, k, exclude, got, want)
					}
					if got := tree.KNearestInto(q, k, exclude, new(KNNScratch), nil); !equalInt32(got, want) {
						t.Fatalf("%s: kdtree KNearest(%v, %d, %d) = %v want %v", name, q, k, exclude, got, want)
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
	grid := NewGrid(pts, 0.6)
	tree := NewKDTree(pts)
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
		buf = tree.KNearestInto(q, k, exclude, &scratch, buf[:0])
		if want := tree.KNearestInto(q, k, exclude, new(KNNScratch), nil); !equalInt32(buf, want) {
			t.Fatalf("kdtree Into mismatch at trial %d: %v want %v", trial, buf, want)
		}
	}
}

// TestQueryAllocationFree asserts the zero-alloc contract of the buffered
// queries once scratch and dst have reached steady state.
func TestQueryAllocationFree(t *testing.T) {
	pts := randomPoints(20000, 33)
	grid := NewGrid(pts, 0.3)
	tree := NewKDTree(pts)
	var scratch KNNScratch
	var buf []int32
	q := geom.Pt(5, 5)
	// Warm up buffers.
	buf = tree.KNearestInto(q, 16, -1, &scratch, buf[:0])
	buf = grid.KNearestInto(q, 16, -1, &scratch, buf[:0])
	buf = tree.Within(q, 0.5, buf[:0])
	buf = grid.Within(q, 0.5, buf[:0])

	if a := testing.AllocsPerRun(100, func() {
		buf = tree.KNearestInto(q, 16, -1, &scratch, buf[:0])
	}); a > 0 {
		t.Errorf("kdtree KNearestInto allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		buf = grid.KNearestInto(q, 16, -1, &scratch, buf[:0])
	}); a > 0 {
		t.Errorf("grid KNearestInto allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		buf = tree.Within(q, 0.5, buf[:0])
	}); a > 0 {
		t.Errorf("kdtree Within allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		buf = grid.Within(q, 0.5, buf[:0])
	}); a > 0 {
		t.Errorf("grid Within allocates %v/op", a)
	}
}

// TestKDTreeDeterministicBuild checks that two builds over the same points
// produce identical trees (quickselect pivots are deterministic).
func TestKDTreeDeterministicBuild(t *testing.T) {
	pts := randomPoints(1000, 34)
	a, b := NewKDTree(pts), NewKDTree(pts)
	if len(a.nodes) != len(b.nodes) || a.root != b.root {
		t.Fatal("tree shapes differ")
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, a.nodes[i], b.nodes[i])
		}
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
