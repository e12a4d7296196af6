package rgg

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/pointprocess"
	"repro/internal/rng"
	"repro/internal/spatial"
)

func TestUDGEdgesRespectRadius(t *testing.T) {
	g := rng.New(1)
	pts := pointprocess.Poisson(geom.Box(10, 10), 2, g)
	udg := UDG(pts, 1)
	for u := int32(0); int(u) < udg.N; u++ {
		for _, v := range udg.Neighbors(u) {
			if d := udg.EdgeLength(u, v); d > 1+1e-12 {
				t.Fatalf("edge (%d,%d) length %v > 1", u, v, d)
			}
		}
	}
	// Completeness: every pair within distance 1 must be an edge.
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= 1 && !udg.HasEdge(int32(i), int32(j)) {
				t.Fatalf("missing UDG edge (%d, %d) at distance %v", i, j, pts[i].Dist(pts[j]))
			}
		}
	}
}

func TestUDGMeanDegreeMatchesTheory(t *testing.T) {
	// For a Poisson(λ) process and radius r, mean degree → λπr² (away from
	// the boundary). Use a torus-free box large enough that edge effects are
	// a few percent.
	g := rng.New(2)
	const lambda = 2.0
	const r = 1.0
	box := geom.Box(40, 40)
	pts := pointprocess.Poisson(box, lambda, g)
	udg := UDG(pts, r)
	// Average degree over interior vertices only.
	interior := box.Expand(-2)
	var sum, n float64
	for i, p := range pts {
		if interior.Contains(p) {
			sum += float64(udg.Degree(int32(i)))
			n++
		}
	}
	got := sum / n
	want := lambda * math.Pi * r * r
	if math.Abs(got-want) > 0.25 {
		t.Errorf("interior mean degree %v want %v", got, want)
	}
}

func TestUDGEmptyAndDegenerate(t *testing.T) {
	if g := UDG(nil, 1); g.N != 0 || g.EdgeCount != 0 {
		t.Error("empty UDG wrong")
	}
	one := []geom.Point{geom.Pt(0, 0)}
	if g := UDG(one, 1); g.N != 1 || g.EdgeCount != 0 {
		t.Error("singleton UDG wrong")
	}
	if g := UDG(one, 0); g.EdgeCount != 0 {
		t.Error("zero-radius UDG should have no edges")
	}
	two := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)}
	if g := UDG(two, 1); g.EdgeCount != 1 {
		t.Error("pair within radius should connect")
	}
}

func TestNNDegreeBounds(t *testing.T) {
	g := rng.New(3)
	pts := pointprocess.Poisson(geom.Box(15, 15), 1.5, g)
	const k = 4
	nn := NN(pts, k)
	for u := 0; u < nn.N; u++ {
		d := nn.Degree(int32(u))
		if d < k {
			t.Fatalf("vertex %d degree %d < k=%d (every vertex picks k neighbors)", u, d, k)
		}
		// A classical planar-geometry bound: a point can be the nearest
		// neighbor of at most 6 points per "rank", so degree ≤ k + 6k = 7k
		// is a very loose sanity ceiling — in practice ≪.
		if d > 7*k {
			t.Fatalf("vertex %d degree %d implausibly high", u, d)
		}
	}
}

func TestNNIsSymmetrizedRelation(t *testing.T) {
	g := rng.New(4)
	pts := pointprocess.Binomial(geom.Box(5, 5), 200, g)
	const k = 3
	nn := NN(pts, k)
	// The directed k-NN relation by exhaustive scan. Edge {u, v} exists iff
	// v ∈ out(u) or u ∈ out(v).
	out := make([][]int32, len(pts))
	for i := range pts {
		out[i] = spatial.BruteKNearest(pts, pts[i], k, i)
	}
	inOut := func(u, v int32) bool {
		for _, w := range out[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	for u := int32(0); int(u) < nn.N; u++ {
		for v := u + 1; int(v) < nn.N; v++ {
			want := inOut(u, v) || inOut(v, u)
			if got := nn.HasEdge(u, v); got != want {
				t.Fatalf("edge (%d,%d): got %v want %v", u, v, got, want)
			}
		}
	}
}

func TestNNEdgeCases(t *testing.T) {
	if g := NN(nil, 3); g.N != 0 {
		t.Error("empty NN wrong")
	}
	one := []geom.Point{geom.Pt(0, 0)}
	if g := NN(one, 3); g.N != 1 || g.EdgeCount != 0 {
		t.Error("singleton NN wrong")
	}
	two := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}
	if g := NN(two, 5); g.EdgeCount != 1 {
		t.Error("k larger than n should connect all pairs present")
	}
	if g := NN(two, 0); g.EdgeCount != 0 {
		t.Error("k=0 NN should be empty")
	}
}

func TestNNContainsNearestNeighborGraph(t *testing.T) {
	// NN(k) edges must be a superset of NN(1) edges.
	g := rng.New(5)
	pts := pointprocess.Binomial(geom.Box(5, 5), 150, g)
	nn1 := NN(pts, 1)
	nn4 := NN(pts, 4)
	for u := int32(0); int(u) < nn1.N; u++ {
		for _, v := range nn1.Neighbors(u) {
			if !nn4.HasEdge(u, v) {
				t.Fatalf("NN(4) missing NN(1) edge (%d, %d)", u, v)
			}
		}
	}
}

func TestNNConnectivityIncreasesWithK(t *testing.T) {
	g := rng.New(6)
	pts := pointprocess.Binomial(geom.Box(10, 10), 300, g)
	prevLargest := 0
	for _, k := range []int{1, 2, 4, 8} {
		nn := NN(pts, k)
		members, _ := graph.LargestComponent(nn.CSR)
		if len(members) < prevLargest {
			t.Errorf("largest component shrank at k=%d: %d < %d", k, len(members), prevLargest)
		}
		prevLargest = len(members)
	}
	if prevLargest < 290 {
		t.Errorf("NN(8) on n=300 should be nearly connected, largest=%d", prevLargest)
	}
}

func TestUDGSubgraphMonotoneInRadius(t *testing.T) {
	g := rng.New(7)
	pts := pointprocess.Binomial(geom.Box(8, 8), 200, g)
	small := UDG(pts, 0.7)
	big := UDG(pts, 1.2)
	for u := int32(0); int(u) < small.N; u++ {
		for _, v := range small.Neighbors(u) {
			if !big.HasEdge(u, v) {
				t.Fatalf("UDG(1.2) missing UDG(0.7) edge (%d,%d)", u, v)
			}
		}
	}
}

func BenchmarkUDGBuild(b *testing.B) {
	g := rng.New(8)
	pts := pointprocess.Poisson(geom.Box(100, 100), 2, g)
	b.ReportMetric(float64(len(pts)), "points")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UDG(pts, 1)
	}
}

func BenchmarkNNBuild(b *testing.B) {
	g := rng.New(9)
	pts := pointprocess.Poisson(geom.Box(60, 60), 2, g)
	b.ReportMetric(float64(len(pts)), "points")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NN(pts, 8)
	}
}

// udgWithin is the per-point-query UDG builder UDG used before it became
// the UDGGrid enumeration, kept as an oracle: every point queries a size-r
// DynGrid for its neighbors within r and emits the pairs j > i, sharded
// across cores, into the unique FromPacked path.
func udgWithin(pts []geom.Point, r float64) *graph.CSR {
	if len(pts) == 0 || r <= 0 {
		return graph.NewBuilder(len(pts)).Build()
	}
	grid := spatial.NewDynGrid(pts, spatial.FiniteBounds(pts), r)
	edges := parallel.Collect(len(pts), func(lo, hi int, out []uint64) []uint64 {
		var buf []int32
		for i := lo; i < hi; i++ {
			buf = grid.Within(pts[i], r, buf[:0])
			for _, j := range buf {
				if j > int32(i) {
					out = append(out, graph.Pack(int32(i), j))
				}
			}
		}
		return out
	})
	return graph.FromPacked(len(pts), edges, true)
}

// serialUDG is the O(n²) serial reference: every pair within r, inserted
// one edge at a time through the dedup-tolerant path.
func serialUDG(pts []geom.Point, r float64) *graph.CSR {
	b := graph.NewBuilder(len(pts))
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= r {
				b.AddEdge(int32(i), int32(j))
			}
		}
	}
	return b.Build()
}

// serialNN is the serial reference for the symmetrized k-NN relation, built
// from brute-force neighbor lists.
func serialNN(pts []geom.Point, k int) *graph.CSR {
	b := graph.NewBuilder(len(pts))
	for i := range pts {
		for _, j := range spatial.BruteKNearest(pts, pts[i], k, i) {
			b.AddEdge(int32(i), j)
		}
	}
	return b.Build()
}

func sameCSR(t *testing.T, label string, a, b *graph.CSR) {
	t.Helper()
	if a.N != b.N || a.EdgeCount != b.EdgeCount {
		t.Fatalf("%s: N/EdgeCount differ: (%d, %d) vs (%d, %d)", label, a.N, a.EdgeCount, b.N, b.EdgeCount)
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			t.Fatalf("%s: Start[%d] = %d vs %d", label, i, a.Start[i], b.Start[i])
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatalf("%s: Adj[%d] = %d vs %d", label, i, a.Adj[i], b.Adj[i])
		}
	}
}

// TestParallelBuildersMatchSerialReference asserts the parallel pipelines
// produce CSRs byte-identical to the serial O(n²) references across several
// deployments, including sizes straddling the shard boundary.
func TestParallelBuildersMatchSerialReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 50, 700, 1500, 2500} {
		pts := pointprocess.Binomial(geom.Box(8, 8), n, rng.New(rng.Seed(40+n)))
		sameCSR(t, "UDG", UDG(pts, 1).CSR, serialUDG(pts, 1))
		sameCSR(t, "NN", NN(pts, 4).CSR, serialNN(pts, 4))
	}
	// Degenerate: duplicate points (distance ties everywhere).
	dup := make([]geom.Point, 40)
	for i := range dup {
		dup[i] = geom.Pt(float64(i%4), float64(i%4))
	}
	sameCSR(t, "UDG-dup", UDG(dup, 1.5).CSR, serialUDG(dup, 1.5))
	sameCSR(t, "NN-dup", NN(dup, 3).CSR, serialNN(dup, 3))
}

// TestBuildersDeterministicAcrossGOMAXPROCS is the acceptance-criterion
// test: same seed ⇒ identical CSR (Start and Adj equal) at worker count 1
// and at the full default.
func TestBuildersDeterministicAcrossGOMAXPROCS(t *testing.T) {
	pts := pointprocess.Poisson(geom.Box(20, 20), 8, rng.New(77))
	if len(pts) < 2000 {
		t.Fatalf("deployment too small (%d) to exercise multiple shards", len(pts))
	}
	// Pin 8 workers for the parallel leg: on a 1-CPU box the default would
	// also be 1 worker and the test would compare two serial runs.
	prev := runtime.GOMAXPROCS(8)
	parallelUDG := UDG(pts, 1).CSR
	parallelNN := NN(pts, 6).CSR

	runtime.GOMAXPROCS(1)
	serialUDG1 := UDG(pts, 1).CSR
	serialNN1 := NN(pts, 6).CSR
	runtime.GOMAXPROCS(prev)

	sameCSR(t, "UDG GOMAXPROCS 1 vs N", serialUDG1, parallelUDG)
	sameCSR(t, "NN GOMAXPROCS 1 vs N", serialNN1, parallelNN)
}
