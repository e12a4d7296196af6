package spatial

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// liveSubset returns the positions and original indices of the grid's live
// slots, for brute-force comparison.
func liveSubset(g *DynGrid) ([]geom.Point, []int32) {
	var pts []geom.Point
	var idx []int32
	for i := int32(0); i < int32(len(g.pts)); i++ {
		if g.cellOf[i] >= 0 {
			pts = append(pts, g.pts[i])
			idx = append(idx, i)
		}
	}
	return pts, idx
}

// checkAgainstBrute compares Within and KNearestInto answers of the kinetic
// grid with brute force over its current live subset at several query points.
func checkAgainstBrute(t *testing.T, g *DynGrid, queries []geom.Point) {
	t.Helper()
	pts, idx := liveSubset(g)
	var scratch KNNScratch
	for qi, q := range queries {
		for _, r := range []float64{0.05, 0.2, 0.6} {
			got := g.Within(q, r, nil)
			slices.Sort(got)
			want := BruteWithin(pts, q, r)
			for i := range want {
				want[i] = idx[want[i]]
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("query %d r=%v: Within=%v want %v", qi, r, got, want)
			}
		}
		for _, k := range []int{1, 3, 8} {
			// Unexcluded, then excluding one live slot as the kinetic
			// maintainers exclude the querying node itself. ex indexes the
			// live subset, exclude the grid's slots.
			for _, ex := range []int{-1, qi % max(len(idx), 1)} {
				exclude := ex
				if ex >= 0 && len(idx) > 0 {
					exclude = int(idx[ex])
				}
				got := g.KNearestInto(q, k, exclude, &scratch, nil)
				want := BruteKNearest(pts, q, k, ex)
				for i := range want {
					want[i] = idx[want[i]]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("query %d k=%d exclude=%d: KNearest=%v want %v", qi, k, exclude, got, want)
				}
			}
		}
	}
}

func dgRandomPoints(n int, box geom.Rect, seed rng.Seed, stream uint64) []geom.Point {
	r := rng.Sub(seed, stream)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: box.Min.X + r.Float64()*box.Width(),
			Y: box.Min.Y + r.Float64()*box.Height(),
		}
	}
	return pts
}

func TestDynGridMatchesBruteForceUnderMutation(t *testing.T) {
	box := geom.Box(1, 1)
	pts := dgRandomPoints(300, box, 7, 0)
	g := NewDynGrid(pts, box, 0.1)
	queries := dgRandomPoints(8, box, 7, 1)
	checkAgainstBrute(t, g, queries)

	r := rng.Sub(7, 2)
	for round := 0; round < 40; round++ {
		// A batch of random moves, removals and re-insertions.
		for step := 0; step < 25; step++ {
			i := int32(r.IntN(len(pts)))
			switch {
			case g.cellOf[i] < 0:
				g.Insert(i, geom.Point{X: r.Float64(), Y: r.Float64()})
			case r.Float64() < 0.15:
				g.Remove(i)
			default:
				g.Move(i, geom.Point{X: r.Float64(), Y: r.Float64()})
			}
		}
		checkAgainstBrute(t, g, queries)
	}
}

func TestDynGridMatchesFreshIndex(t *testing.T) {
	// After arbitrary mutations, the kinetic grid must answer exactly like a
	// grid freshly built at the same live positions (same tie-breaks, same
	// order) — the query-level equivalence gate.
	box := geom.Box(1, 1)
	pts := dgRandomPoints(200, box, 11, 0)
	g := NewDynGrid(pts, box, 0.12)
	r := rng.Sub(11, 1)
	for i := 0; i < 500; i++ {
		g.Move(int32(r.IntN(len(pts))), geom.Point{X: r.Float64(), Y: r.Float64()})
	}
	cur := make([]geom.Point, len(pts))
	for i := range cur {
		cur[i] = g.pts[i]
	}
	fresh := NewDynGrid(cur, box, 0.12)
	var s1, s2 KNNScratch
	for _, q := range dgRandomPoints(16, box, 11, 2) {
		a := g.KNearestInto(q, 5, -1, &s1, nil)
		b := fresh.KNearestInto(q, 5, -1, &s2, nil)
		if !slices.Equal(a, b) {
			t.Fatalf("kinetic %v != fresh %v at %v", a, b, q)
		}
	}
}

func TestDynGridNearestWhere(t *testing.T) {
	box := geom.Box(1, 1)
	pts := dgRandomPoints(250, box, 13, 0)
	g := NewDynGrid(pts, box, 0.1)
	ok := make([]bool, len(pts))
	r := rng.Sub(13, 1)
	for i := range ok {
		ok[i] = r.Float64() < 0.3
	}
	pred := func(i int32) bool { return ok[i] }
	for qi, q := range dgRandomPoints(12, box, 13, 2) {
		got := g.NearestWhere(q, pred)
		// Brute force over live qualifying points.
		want, bestD := int32(-1), 0.0
		for i, p := range pts {
			if !ok[i] || g.cellOf[i] < 0 {
				continue
			}
			d := p.Dist2(q)
			if want < 0 || d < bestD || (d == bestD && int32(i) < want) {
				want, bestD = int32(i), d
			}
		}
		if got != want {
			t.Fatalf("query %d: NearestWhere=%d want %d", qi, got, want)
		}
	}
	// Remove every qualifying point: the search must report none.
	for i := range ok {
		if ok[i] {
			g.Remove(int32(i))
		}
	}
	if got := g.NearestWhere(geom.Pt(0.5, 0.5), pred); got != -1 {
		t.Fatalf("NearestWhere over dead qualifiers = %d, want -1", got)
	}
}

func TestDynGridRemoveInsertRoundTrip(t *testing.T) {
	box := geom.Box(1, 1)
	pts := dgRandomPoints(50, box, 17, 0)
	g := NewDynGrid(pts, box, 0.25)
	if g.Len() != 50 {
		t.Fatalf("Len=%d want 50", g.Len())
	}
	g.Remove(7)
	g.Remove(7) // idempotent
	if g.Len() != 49 || g.cellOf[7] >= 0 {
		t.Fatalf("after Remove: Len=%d alive=%v", g.Len(), g.cellOf[7] >= 0)
	}
	if got := g.Within(pts[7], 1e-12, nil); len(got) != 0 {
		t.Fatalf("removed point still visible: %v", got)
	}
	g.Insert(7, pts[7])
	if g.Len() != 50 || g.cellOf[7] < 0 {
		t.Fatalf("after Insert: Len=%d alive=%v", g.Len(), g.cellOf[7] >= 0)
	}
	if got := g.Within(pts[7], 1e-12, nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("reinserted point not found: %v", got)
	}
}

// heapNearest is KNearestInto's heap path at k = 1 over the grid's search
// order: the reference the single-best path must reproduce, NaN distances
// included.
func heapNearest(g *DynGrid, q geom.Point, exclude int) []int32 {
	var h maxHeap
	h.reset(1)
	g.search(q, func(gap2 float64) bool { return h.full() && gap2 > h.top() }, func(cell []int32) {
		for _, i := range cell {
			if int(i) != exclude {
				h.push(g.pts[i].Dist2(q), i)
			}
		}
	})
	return h.appendSorted(nil)
}

// TestKNearestOneMatchesHeapPath: with NaN and infinite coordinates the
// nearest point depends on the visit order, so the single-best k = 1 path
// must equal the heap path over the same search (finite sets are held to
// BruteKNearest by TestKNearestExactAgreementDegenerate).
func TestKNearestOneMatchesHeapPath(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	pts := append(dgRandomPoints(40, geom.Box(8, 8), 95, 0),
		geom.Pt(nan, 1), geom.Pt(2, nan), geom.Pt(inf, 3), geom.Pt(-inf, -inf), geom.Pt(nan, nan), geom.Pt(3, 3))
	grid := NewDynGrid(pts, geom.Box(8, 8), 0.7)
	var scratch KNNScratch
	for _, q := range []geom.Point{geom.Pt(3, 3), geom.Pt(nan, 0), geom.Pt(inf, 2), geom.Pt(-inf, inf), geom.Pt(9, -3)} {
		for _, exclude := range []int{-1, 0, 40, len(pts) - 1} {
			got := grid.KNearestInto(q, 1, exclude, &scratch, nil)
			if want := heapNearest(grid, q, exclude); !slices.Equal(got, want) {
				t.Fatalf("KNearestInto(%v, 1, %d) = %v, heap path %v", q, exclude, got, want)
			}
		}
	}
}
