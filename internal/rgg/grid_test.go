package rgg

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/pointprocess"
	"repro/internal/rng"
)

// TestUDGGridMatchesBruteForce is the pair-free enumeration property test:
// across random deployments and radii the grid builder must be edge-for-edge
// identical to the O(n²) reference. Radii include values where many pairs sit
// at distance exactly r (lattice deployments), the boundary case the
// half-open stencil must not lose.
func TestUDGGridMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 64, 300, 900} {
		for _, r := range []float64{0.3, 1, 2.5} {
			pts := pointprocess.Binomial(geom.Box(6, 6), n, rng.New(rng.Seed(90+n)))
			sameCSR(t, "UDGGrid-random", UDGGrid(pts, r).CSR, serialUDG(pts, r))
		}
	}
	// Lattice at spacing exactly r: every axis-neighbor pair is at distance
	// exactly r AND on a cell boundary of the size-r grid.
	for _, r := range []float64{0.5, 1, 2} {
		var pts []geom.Point
		for i := 0; i < 12; i++ {
			for j := 0; j < 12; j++ {
				pts = append(pts, geom.Pt(float64(i)*r, float64(j)*r))
			}
		}
		sameCSR(t, "UDGGrid-lattice", UDGGrid(pts, r).CSR, serialUDG(pts, r))
		// Sanity: the lattice case really exercises distance == r edges.
		if g := UDGGrid(pts, r); g.EdgeCount != 2*12*11 {
			t.Fatalf("lattice UDG at spacing r: %d edges, want %d", g.EdgeCount, 2*12*11)
		}
	}
	// Duplicate points: zero distances, maximal within-cell pairing.
	dup := make([]geom.Point, 40)
	for i := range dup {
		dup[i] = geom.Pt(float64(i%4), float64(i%4))
	}
	sameCSR(t, "UDGGrid-dup", UDGGrid(dup, 1.5).CSR, serialUDG(dup, 1.5))
}

// TestUDGGridMatchesUDGAt10k is the equivalence gate of the pair-free
// enumeration: on a 10⁴-point deployment it produces the identical CSR to
// the per-point-query oracle udgWithin.
func TestUDGGridMatchesUDGAt10k(t *testing.T) {
	pts := pointprocess.Poisson(geom.Box(25, 25), 16, rng.New(91))
	if len(pts) < 9000 {
		t.Fatalf("deployment too small (%d) for the 10k gate", len(pts))
	}
	sameCSR(t, "UDGGrid vs per-point queries @10k", UDGGrid(pts, 1).CSR, udgWithin(pts, 1))
}

// TestUDGGridDeterministicAcrossGOMAXPROCS pins the scale-tier builder to
// the determinism contract: identical CSR at 1 worker and at 8.
func TestUDGGridDeterministicAcrossGOMAXPROCS(t *testing.T) {
	pts := pointprocess.Poisson(geom.Box(20, 20), 8, rng.New(92))
	prev := runtime.GOMAXPROCS(8)
	wide := UDGGrid(pts, 1).CSR
	runtime.GOMAXPROCS(1)
	narrow := UDGGrid(pts, 1).CSR
	runtime.GOMAXPROCS(prev)
	sameCSR(t, "UDGGrid GOMAXPROCS 1 vs 8", narrow, wide)
}

func TestUDGGridSoA(t *testing.T) {
	pts := pointprocess.Poisson(geom.Box(8, 8), 4, rng.New(93))
	s := geom.FromPoints(pts)
	sameCSR(t, "UDGGridSoA", UDGGridSoA(s, 1).CSR, UDGGrid(pts, 1).CSR)
}

// TestUDGBuildersAllocBudget asserts the pre-sized collector holds: a 10⁵
// point build must stay within a small per-shard allocation budget — a
// handful of slabs per shard plus the CSR build — rather than walking the
// append growth ladder on every shard.
func TestUDGBuildersAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-point alloc gate skipped in -short")
	}
	pts := pointprocess.Poisson(geom.Box(80, 80), 16, rng.New(94))
	if len(pts) < 95000 {
		t.Fatalf("deployment too small (%d) for the 100k gate", len(pts))
	}
	shards := (len(pts) + parallel.DefaultGrain - 1) / parallel.DefaultGrain
	// Budget: per shard one edge buffer and a little scratch, plus a fixed
	// overhead for the grid, the merge, and the CSR slabs. A collector that
	// regrows its buffer instead of pre-sizing blows through this by ~10
	// reallocations per shard.
	budget := float64(4*shards + 64)

	if got := testing.AllocsPerRun(3, func() { UDG(pts, 1) }); got > budget {
		t.Errorf("UDG(100k) allocs/op = %.0f, budget %.0f", got, budget)
	}
}
