package topo

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
)

func testUDG(t *testing.T, seed rng.Seed, lambda float64) *rgg.Geometric {
	t.Helper()
	g := rng.New(seed)
	pts := pointprocess.Poisson(geom.Box(12, 12), lambda, g)
	if len(pts) < 20 {
		t.Skip("sparse realization")
	}
	return rgg.UDG(pts, 1)
}

// subgraphOf asserts every edge of sub exists in base.
func subgraphOf(t *testing.T, name string, sub, base *rgg.Geometric) {
	t.Helper()
	for u := int32(0); int(u) < sub.N; u++ {
		for _, v := range sub.Neighbors(u) {
			if !base.HasEdge(u, v) {
				t.Fatalf("%s edge (%d,%d) not in base", name, u, v)
			}
		}
	}
}

func TestGabrielProperties(t *testing.T) {
	base := testUDG(t, 1, 3)
	gg := Gabriel(base)
	subgraphOf(t, "gabriel", gg, base)
	// Definition check by brute force.
	pts := base.Pos
	for u := int32(0); int(u) < base.N; u++ {
		for _, v := range base.Neighbors(u) {
			if v <= u {
				continue
			}
			mid := geom.Midpoint(pts[u], pts[v])
			r2 := pts[u].Dist2(pts[v]) / 4
			empty := true
			for w := range pts {
				if int32(w) == u || int32(w) == v {
					continue
				}
				if mid.Dist2(pts[w]) < r2-1e-15 {
					empty = false
					break
				}
			}
			if empty != gg.HasEdge(u, v) {
				t.Fatalf("gabriel membership wrong for (%d,%d): brute %v", u, v, empty)
			}
		}
	}
}

func TestRNGSubsetOfGabriel(t *testing.T) {
	// Classical hierarchy: EMST ⊆ RNG ⊆ Gabriel ⊆ UDG.
	base := testUDG(t, 2, 3)
	gg := Gabriel(base)
	rn := RelativeNeighborhood(base)
	mst := EMST(base)
	subgraphOf(t, "rng", rn, gg)
	subgraphOf(t, "emst", mst, rn)
}

func TestConnectivityPreserved(t *testing.T) {
	// Gabriel, RNG and EMST preserve UDG connectivity (per component).
	base := testUDG(t, 3, 3)
	_, baseSizes := graph.Components(base.CSR)
	for _, tc := range []struct {
		name string
		g    *rgg.Geometric
	}{
		{"gabriel", Gabriel(base)},
		{"rng", RelativeNeighborhood(base)},
		{"emst", EMST(base)},
		{"yao6", Yao(base, 6)},
	} {
		_, sizes := graph.Components(tc.g.CSR)
		if len(sizes) != len(baseSizes) {
			t.Errorf("%s changed component count: %d vs %d", tc.name, len(sizes), len(baseSizes))
		}
	}
}

func TestEMSTEdgeCount(t *testing.T) {
	base := testUDG(t, 4, 3)
	mst := EMST(base)
	_, sizes := graph.Components(base.CSR)
	want := base.N - len(sizes) // spanning forest
	if mst.EdgeCount != want {
		t.Errorf("EMST edges = %d want %d", mst.EdgeCount, want)
	}
}

func TestEMSTIsMinimal(t *testing.T) {
	// Removing any MST edge and reconnecting via the cheapest cut edge must
	// not find a cheaper edge (cut property spot check on a small instance).
	g := rng.New(5)
	pts := pointprocess.Binomial(geom.Box(3, 3), 30, g)
	base := rgg.UDG(pts, 3) // complete-ish
	mst := EMST(base)
	// Total weight must match a brute-force Prim run.
	var mstTotal float64
	for u := int32(0); int(u) < mst.N; u++ {
		for _, v := range mst.Neighbors(u) {
			if v > u {
				mstTotal += pts[u].Dist(pts[v])
			}
		}
	}
	primTotal := primWeight(pts)
	if diff := mstTotal - primTotal; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Kruskal weight %v vs Prim %v", mstTotal, primTotal)
	}
}

func primWeight(pts []geom.Point) float64 {
	n := len(pts)
	inTree := make([]bool, n)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = 1e18
	}
	dist[0] = 0
	total := 0.0
	for iter := 0; iter < n; iter++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		total += dist[best]
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[best].Dist(pts[i]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

func TestYaoDegreeAndCones(t *testing.T) {
	base := testUDG(t, 6, 4)
	yao := Yao(base, 6)
	subgraphOf(t, "yao", yao, base)
	// Out-degree per vertex ≤ cones, so total degree ≤ 2·cones-ish; at
	// minimum it must be well below the base degree.
	if yao.MeanDegree() >= base.MeanDegree() {
		t.Errorf("yao mean degree %v not below base %v", yao.MeanDegree(), base.MeanDegree())
	}
	// Yao keeps each vertex's shortest edge, so isolated-in-yao vertices
	// must be isolated in base.
	for u := int32(0); int(u) < base.N; u++ {
		if base.Degree(u) > 0 && yao.Degree(u) == 0 {
			t.Fatalf("vertex %d isolated in yao but not in base", u)
		}
	}
	if got := Yao(base, 0); got.N != base.N {
		t.Error("cones<1 should clamp, not crash")
	}
}

func TestSparsityOrdering(t *testing.T) {
	base := testUDG(t, 7, 4)
	gg := Gabriel(base)
	rn := RelativeNeighborhood(base)
	mst := EMST(base)
	if !(mst.EdgeCount <= rn.EdgeCount && rn.EdgeCount <= gg.EdgeCount && gg.EdgeCount <= base.EdgeCount) {
		t.Errorf("edge counts not ordered: mst %d rng %d gabriel %d base %d",
			mst.EdgeCount, rn.EdgeCount, gg.EdgeCount, base.EdgeCount)
	}
}

func TestEmptyInputs(t *testing.T) {
	empty := rgg.UDG(nil, 1)
	if Gabriel(empty).N != 0 || RelativeNeighborhood(empty).N != 0 ||
		Yao(empty, 6).N != 0 || EMST(empty).N != 0 {
		t.Error("empty baselines wrong")
	}
}

// TestTopoDeterministicAcrossGOMAXPROCS checks the parallel witness scans
// produce identical CSRs at worker count 1 and the full default.
func TestTopoDeterministicAcrossGOMAXPROCS(t *testing.T) {
	pts := pointprocess.Poisson(geom.Box(15, 15), 8, rng.New(55))
	base := rgg.UDG(pts, 1)
	type build func() *rgg.Geometric
	builds := map[string]build{
		"gabriel": func() *rgg.Geometric { return Gabriel(base) },
		"rng":     func() *rgg.Geometric { return RelativeNeighborhood(base) },
		"yao":     func() *rgg.Geometric { return Yao(base, 6) },
		"emst":    func() *rgg.Geometric { return EMST(base) },
	}
	for name, f := range builds {
		// 8 workers for the parallel leg even on a 1-CPU box (see rgg's test).
		prev := runtime.GOMAXPROCS(8)
		parallelG := f().CSR
		runtime.GOMAXPROCS(1)
		serialG := f().CSR
		runtime.GOMAXPROCS(prev)
		if parallelG.EdgeCount != serialG.EdgeCount {
			t.Fatalf("%s: EdgeCount %d vs %d", name, parallelG.EdgeCount, serialG.EdgeCount)
		}
		for i := range parallelG.Start {
			if parallelG.Start[i] != serialG.Start[i] {
				t.Fatalf("%s: Start[%d] differs", name, i)
			}
		}
		for i := range parallelG.Adj {
			if parallelG.Adj[i] != serialG.Adj[i] {
				t.Fatalf("%s: Adj[%d] differs", name, i)
			}
		}
	}
}

// TestEMSTMatchesReferenceKruskal checks EMST edge for edge against a
// brute-force Kruskal over every base edge in (d², u, v) order, at one and
// at eight workers, on a Poisson fixture and on an integer lattice at
// radius √2, where most edge lengths tie.
func TestEMSTMatchesReferenceKruskal(t *testing.T) {
	var lattice []geom.Point
	for y := 0; y < 40; y++ {
		for x := 0; x < 40; x++ {
			lattice = append(lattice, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	for _, fx := range []struct {
		name string
		base *rgg.Geometric
	}{
		{"poisson", rgg.UDG(pointprocess.Poisson(geom.Box(10, 10), 20, rng.New(17)), 1)},
		{"lattice", rgg.UDG(lattice, math.Sqrt2)},
	} {
		base, pts := fx.base, fx.base.Pos
		type edge struct {
			d2   float64
			u, v int32
		}
		var edges []edge
		for u := int32(0); int(u) < base.N; u++ {
			for _, v := range base.Neighbors(u) {
				if v > u {
					edges = append(edges, edge{pts[u].Dist2(pts[v]), u, v})
				}
			}
		}
		slices.SortFunc(edges, func(a, b edge) int {
			return cmp.Or(cmp.Compare(a.d2, b.d2), cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
		})
		uf := graph.NewUnionFind(base.N)
		ref := graph.NewBuilder(base.N)
		for _, e := range edges {
			if uf.Union(e.u, e.v) {
				ref.AddEdge(e.u, e.v)
			}
		}
		want := ref.Build()
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got := EMST(base).CSR
			runtime.GOMAXPROCS(prev)
			if !graph.Equal(got, want) {
				t.Errorf("%s at GOMAXPROCS %d: EMST (%d edges) differs from reference Kruskal (%d edges)",
					fx.name, procs, got.EdgeCount, want.EdgeCount)
			}
		}
	}
}
