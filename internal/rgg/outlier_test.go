package rgg

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

// bruteUDG is the O(n²) oracle with UDGGrid's own edge predicate: an edge
// joins every pair with |p−q|² ≤ r², so pairs at distance exactly r count
// and any pair involving a NaN or infinite coordinate does not.
func bruteUDG(pts []geom.Point, r float64) *graph.CSR {
	b := graph.NewBuilder(len(pts))
	if r > 0 {
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if pts[i].Dist2(pts[j]) <= r*r {
					b.AddEdge(int32(i), int32(j))
				}
			}
		}
	}
	return b.Build()
}

// finite reports whether every coordinate of pts is finite.
func finite(pts []geom.Point) bool {
	for _, p := range pts {
		if math.IsNaN(p.X+p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return false
		}
	}
	return true
}

// checkNN holds NN to its contract on an adversarial point set. On finite
// sets it must equal the brute-force symmetrized kNN relation edge for
// edge; with a NaN or infinite coordinate "nearest" is ill-defined, so it
// must only not panic and give the same CSR at GOMAXPROCS 1 and 8.
func checkNN(t *testing.T, label string, pts []geom.Point, k int) {
	t.Helper()
	if finite(pts) {
		sameCSR(t, label, NN(pts, k).CSR, serialNN(pts, k))
		return
	}
	prev := runtime.GOMAXPROCS(1)
	one := NN(pts, k).CSR
	runtime.GOMAXPROCS(8)
	eight := NN(pts, k).CSR
	runtime.GOMAXPROCS(prev)
	sameCSR(t, label+" GOMAXPROCS 1 vs 8", one, eight)
}

// TestUDGGridOutliers pins the cell-count bound: a far outlier or a
// non-finite coordinate used to size the grid from the raw bounding box
// (makeslice panic); the grid now stays O(n) cells and the graph still
// equals brute force edge for edge. NN runs on the same rows with every
// point duplicated, for k ∈ {1, 2, 3, 6}.
func TestUDGGridOutliers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		pts   []geom.Point
		r     float64
		edges int
	}{
		{"far outlier", []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(-1e300, 5)}, 1.5, 1},
		{"outliers on both sides", []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1e300, 1e300), geom.Pt(-1e300, -1e300)}, 1, 1},
		{"outlier on a line", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1e300, 0)}, 1, 1},
		{"cluster at the outlier", []geom.Point{geom.Pt(0, 0), geom.Pt(0.7, 0), geom.Pt(1e300, 0), geom.Pt(1e300, 0.5), geom.Pt(1e300, 1)}, 0.5, 2},
		{"full float range", []geom.Point{geom.Pt(-math.MaxFloat64, 0), geom.Pt(math.MaxFloat64, 0), geom.Pt(0, 0), geom.Pt(0, 1)}, 1, 1},
		{"NaN and Inf", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(nan, 0), geom.Pt(0, nan), geom.Pt(inf, 0), geom.Pt(-inf, inf), geom.Pt(inf, inf)}, 1, 1},
		{"only non-finite", []geom.Point{geom.Pt(nan, nan), geom.Pt(inf, -inf), geom.Pt(inf, -inf)}, 1, 0},
		{"tiny radius, wide spread", []geom.Point{geom.Pt(0, 0), geom.Pt(1e-3, 0), geom.Pt(1e6, 1e6)}, 1e-3, 1},
		{"subnormal spread", []geom.Point{geom.Pt(0, 0), geom.Pt(5e-324, 0), geom.Pt(0, 5e-324), geom.Pt(5e-324, 5e-324)}, 1, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := UDGGrid(tc.pts, tc.r)
			sameCSR(t, tc.name, got.CSR, bruteUDG(tc.pts, tc.r))
			if got.EdgeCount != tc.edges {
				t.Fatalf("%d edges, want %d", got.EdgeCount, tc.edges)
			}
			dup := append(slices.Clone(tc.pts), tc.pts...)
			for _, k := range []int{1, 2, 3, 6} {
				checkNN(t, fmt.Sprintf("%s NN k=%d", tc.name, k), dup, k)
			}
		})
	}
}

// fuzzCoord decodes one coordinate byte: mostly multiples of r/2 on a
// small range (duplicates and pairs at distance exactly r), some arbitrary
// fractions, and the special values ±1e300, ±Inf, NaN and ±MaxFloat64.
func fuzzCoord(b byte, r float64) float64 {
	switch {
	case b < 192:
		return float64(b%16) * r / 2
	case b < 248:
		return float64(b) / 7.3
	}
	return [...]float64{1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, 1e300 + 1e285}[b-248]
}

// FuzzUDGGrid checks that UDGGrid never panics and equals the O(n²) brute
// force edge for edge on arbitrary point sets: duplicates, pairs at
// distance exactly r, far outliers and non-finite coordinates. NN, with k
// drawn from {1, 2, 3, 6}, is held to checkNN on the same decode.
func FuzzUDGGrid(f *testing.F) {
	f.Add([]byte{2, 2, 4, 4, 249, 10}, uint8(1))
	f.Add([]byte{0, 0, 2, 0, 0, 2, 2, 2, 248, 248, 251, 0, 252, 252}, uint8(0))
	f.Add([]byte{253, 254, 255, 0, 0, 0, 1, 1, 200, 201}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, rsel uint8) {
		r := [...]float64{1, 0.5, 2.5, 1e-3}[rsel%4]
		if len(data) > 400 {
			data = data[:400]
		}
		pts := make([]geom.Point, len(data)/2)
		for i := range pts {
			pts[i] = geom.Pt(fuzzCoord(data[2*i], r), fuzzCoord(data[2*i+1], r))
		}
		sameCSR(t, "FuzzUDGGrid", UDGGrid(pts, r).CSR, bruteUDG(pts, r))
		checkNN(t, "FuzzUDGGrid NN", pts, [...]int{1, 2, 3, 6}[rsel/4%4])
	})
}
