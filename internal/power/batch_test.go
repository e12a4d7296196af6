package power

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
)

// batchFixture builds a base UDG and a sparser sub-UDG with some
// disconnected vertex pairs, plus a deterministic pair sample over ALL
// vertices (connected or not) so every engine path is exercised.
func batchFixture(t *testing.T) (sub, base *rgg.Geometric, pts []geom.Point, pairs []Pair) {
	t.Helper()
	g := rng.New(7)
	pts = pointprocess.Poisson(geom.Box(10, 10), 4, g)
	if len(pts) < 50 {
		t.Skip("sparse realization")
	}
	base = rgg.UDG(pts, 1.0)
	sub = rgg.UDG(pts, 0.55)
	n := int32(len(pts))
	for i := 0; i < 80; i++ {
		u, v := g.Int32N(n), g.Int32N(n)
		if u == v {
			continue
		}
		pairs = append(pairs, Pair{U: u, V: v})
	}
	return sub, base, pts, pairs
}

// naiveDist is the closure-weighted reference the engine is checked
// against: an O(N²) Dijkstra from u with weights computed per relaxation,
// stopping once v is settled. +Inf if v is unreachable.
func naiveDist(g *graph.CSR, u, v int32, weight func(a, b int32) float64) float64 {
	dist := make([]float64, g.N)
	done := make([]bool, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[u] = 0
	for {
		x := int32(-1)
		for i, d := range dist {
			if !done[i] && !math.IsInf(d, 1) && (x < 0 || d < dist[x]) {
				x = int32(i)
			}
		}
		if x < 0 || x == v {
			return dist[v]
		}
		done[x] = true
		for _, y := range g.Neighbors(x) {
			dist[y] = min(dist[y], dist[x]+weight(x, y))
		}
	}
}

// TestMeasurePairsMatchesNaive checks the batched source-grouped engine
// against the naive reference: four independent point-to-point Dijkstra
// runs and a BFS per pair, exactly what MeasureStretch did before batching.
func TestMeasurePairsMatchesNaive(t *testing.T) {
	sub, base, pts, pairs := batchFixture(t)
	const beta = 3.0
	out := MeasurePairs(sub.CSR, base.CSR, pts, pairs, BatchSpec{Beta: beta, Hops: true})
	if len(out) != len(pairs) {
		t.Fatalf("got %d samples for %d pairs", len(out), len(pairs))
	}
	dw := func(a, b int32) float64 { return pts[a].Dist(pts[b]) }
	pw := func(a, b int32) float64 { return math.Pow(pts[a].Dist(pts[b]), beta) }
	var hops []int32
	sawDisconnected := false
	for i, p := range pairs {
		s := out[i]
		if s.U != p.U || s.V != p.V {
			t.Fatalf("pair %d: sample is for (%d, %d), want (%d, %d)", i, s.U, s.V, p.U, p.V)
		}
		wantSub := naiveDist(sub.CSR, p.U, p.V, dw)
		wantBase := naiveDist(base.CSR, p.U, p.V, dw)
		wantPSub := naiveDist(sub.CSR, p.U, p.V, pw)
		wantPBase := naiveDist(base.CSR, p.U, p.V, pw)
		if !sameDist(s.SubLen, wantSub) || !sameDist(s.BaseLen, wantBase) ||
			!sameDist(s.PowerSub, wantPSub) || !sameDist(s.PowerBase, wantPBase) {
			t.Fatalf("pair (%d, %d): batched %+v vs naive sub=%v base=%v psub=%v pbase=%v",
				p.U, p.V, s, wantSub, wantBase, wantPSub, wantPBase)
		}
		hops = graph.BFS(sub.CSR, p.U, hops)
		if s.Hops != int(hops[p.V]) {
			t.Fatalf("pair (%d, %d): hops %d want %d", p.U, p.V, s.Hops, hops[p.V])
		}
		if math.IsInf(wantSub, 1) {
			sawDisconnected = true
			if !math.IsInf(s.DistStretch, 1) {
				t.Fatalf("disconnected pair should report +Inf stretch: %+v", s)
			}
		} else if wantBase > 0 && !sameDist(s.DistStretch, wantSub/wantBase) {
			t.Fatalf("pair (%d, %d): DistStretch %v want %v", p.U, p.V, s.DistStretch, wantSub/wantBase)
		}
		if !math.IsInf(wantPSub, 1) && wantPBase > 0 &&
			!sameDist(s.PowerStretch, wantPSub/wantPBase) {
			t.Fatalf("pair (%d, %d): PowerStretch %v want %v", p.U, p.V, s.PowerStretch, wantPSub/wantPBase)
		}
	}
	if !sawDisconnected {
		t.Log("fixture had no disconnected pair; +Inf path unexercised this seed")
	}
}

func sameDist(got, want float64) bool {
	if math.IsInf(got, 1) || math.IsInf(want, 1) {
		return math.IsInf(got, 1) && math.IsInf(want, 1)
	}
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}

// TestMeasurePairsSubOnly covers the base == nil / Beta <= 0 half of the
// engine (the E08 configuration): base and power fields must stay zero.
func TestMeasurePairsSubOnly(t *testing.T) {
	sub, _, pts, pairs := batchFixture(t)
	dw := func(a, b int32) float64 { return pts[a].Dist(pts[b]) }
	out := MeasurePairs(sub.CSR, nil, pts, pairs, BatchSpec{Hops: true})
	for i, p := range pairs {
		s := out[i]
		if !sameDist(s.SubLen, naiveDist(sub.CSR, p.U, p.V, dw)) {
			t.Fatalf("pair (%d, %d): SubLen %v", p.U, p.V, s.SubLen)
		}
		if s.BaseLen != 0 || s.PowerSub != 0 || s.PowerBase != 0 ||
			s.DistStretch != 0 || s.PowerStretch != 0 {
			t.Fatalf("sub-only sample has base/power fields set: %+v", s)
		}
	}
	if got := MeasurePairs(sub.CSR, nil, pts, nil, BatchSpec{}); got != nil {
		t.Errorf("empty pair list should yield nil, got %v", got)
	}
}

// TestMeasurePairsDeterministicAcrossGOMAXPROCS pins the engine's
// determinism contract: the fan-out over sources must produce identical
// samples at any worker count.
func TestMeasurePairsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sub, base, pts, pairs := batchFixture(t)
	spec := BatchSpec{Beta: 2, Hops: true}
	// 8 workers for the parallel leg even on a 1-CPU box: with grain-1
	// source shards this genuinely exercises the concurrent merge path.
	prev := runtime.GOMAXPROCS(8)
	parallelOut := MeasurePairs(sub.CSR, base.CSR, pts, pairs, spec)
	runtime.GOMAXPROCS(1)
	serialOut := MeasurePairs(sub.CSR, base.CSR, pts, pairs, spec)
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(parallelOut, serialOut) {
		t.Fatal("MeasurePairs differs between GOMAXPROCS 1 and default")
	}
}

// TestMeasureStretchAllocsBounded is the allocation regression gate for the
// E11/E14 hot path: the batched engine with reused Dijkstra scratch must
// stay orders of magnitude below the per-pair Dijkstra loop it replaced
// (which allocated a dist slab per call and boxed every heap push — ~2M
// allocs per E11 run at bench scale).
func TestMeasureStretchAllocsBounded(t *testing.T) {
	g := rng.New(9)
	pts := pointprocess.Poisson(geom.Box(12, 12), 8, g)
	base := rgg.UDG(pts, 1.0)
	sub := rgg.UDG(pts, 0.7)
	members, _ := graph.LargestComponent(sub.CSR)
	if len(members) < 100 {
		t.Skip("sparse realization")
	}
	const maxAllocs = 500
	if a := testing.AllocsPerRun(3, func() {
		if _, err := MeasureStretch(sub.CSR, base.CSR, pts, members, 3, 30, 1200, rng.New(5)); err != nil {
			t.Error(err)
		}
	}); a > maxAllocs {
		t.Errorf("MeasureStretch allocates %.0f/op for n=%d, want ≤ %d", a, len(pts), maxAllocs)
	}
}

// TestPairsAllocsWarm is the allocation gate for a warm Measurer.Pairs
// (weight slabs filled, the serving path's steady state). Sweep scratch
// comes warm from a pool and samples are written in place, so a call
// allocates the same at 1 and at 16 source groups. The limits are what
// Pairs allocated on this fixture with per-group scratch and a
// collect-then-scatter merge; the bounded sweeps' target marks must not
// push it past them. Under the race detector sync.Pool drops Puts at
// random, so the counts are only checked without it.
func TestPairsAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	g := rng.New(9)
	pts := pointprocess.Poisson(geom.Box(12, 12), 8, g)
	base := rgg.UDG(pts, 1.0)
	sub := rgg.UDG(pts, 0.7)
	members, _ := graph.LargestComponent(sub.CSR)
	if len(members) < 500 {
		t.Skip("sparse realization")
	}
	pairsFor := func(groups int) []Pair {
		var pairs []Pair
		for s := 0; s < groups; s++ {
			for k := 0; k < 4; k++ {
				pairs = append(pairs, Pair{U: members[s*7], V: members[(s*31+k*101+5)%len(members)]})
			}
		}
		return pairs
	}
	for _, tc := range []struct {
		hops            bool
		limit1, limit16 float64
	}{{false, 26, 337}, {true, 38, 529}} {
		m := NewMeasurer(sub.CSR, base.CSR, pts, BatchSpec{Beta: 3, Hops: tc.hops})
		allocs := func(groups int) float64 {
			pairs := pairsFor(groups)
			m.Pairs(pairs)
			return testing.AllocsPerRun(5, func() { m.Pairs(pairs) })
		}
		a1, a16 := allocs(1), allocs(16)
		if a1 > tc.limit1 || a16 > tc.limit16 {
			t.Errorf("hops=%v: Pairs allocates %.0f/op at 1 group and %.0f/op at 16, want ≤ %.0f and ≤ %.0f",
				tc.hops, a1, a16, tc.limit1, tc.limit16)
		}
		if a1 != a16 {
			t.Errorf("hops=%v: Pairs allocates %.0f/op at 1 group but %.0f/op at 16", tc.hops, a1, a16)
		}
	}
}

// TestMeasureStretchDistanceOnly pins the beta <= 0 contract: distance
// stretch samples come back (power fields unset), not a spurious
// "no connected pairs" error from the power-side acceptance filter.
func TestMeasureStretchDistanceOnly(t *testing.T) {
	g := rng.New(11)
	pts := pointprocess.Poisson(geom.Box(8, 8), 4, g)
	base := rgg.UDG(pts, 1.0)
	sub := rgg.UDG(pts, 0.7)
	members, _ := graph.LargestComponent(sub.CSR)
	if len(members) < 20 {
		t.Skip("sparse realization")
	}
	samples, err := MeasureStretch(sub.CSR, base.CSR, pts, members, 0, 20, 800, rng.New(12))
	if err != nil {
		t.Fatalf("beta=0 measurement failed: %v", err)
	}
	for _, s := range samples {
		if s.DistStretch < 1-1e-9 || math.IsInf(s.DistStretch, 1) {
			t.Fatalf("bad distance stretch: %+v", s)
		}
		if s.PowerSub != 0 || s.PowerBase != 0 || s.PowerStretch != 0 {
			t.Fatalf("power fields set for beta=0: %+v", s)
		}
	}
}
