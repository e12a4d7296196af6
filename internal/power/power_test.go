package power

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
)

func TestEdgeAndPathCost(t *testing.T) {
	if got := EdgeCost(2, 3); got != 8 {
		t.Errorf("EdgeCost = %v", got)
	}
	if got := EdgeCost(0, 2); got != 0 {
		t.Errorf("EdgeCost(0) = %v", got)
	}
	if got := EdgeCost(math.Sqrt2, 2); math.Abs(got-2) > 1e-12 {
		t.Errorf("EdgeCost(√2, 2) = %v", got)
	}
}

func TestMinPathPowerPrefersShortHops(t *testing.T) {
	// 0 —— 2 directly (length 2) or via 1 (two hops of length 1).
	// For β ≥ 2: two short hops cost 2 < 2^β, so relaying wins.
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	minPower := func(g *graph.CSR, pos []geom.Point) float64 {
		return MeasurePairs(g, nil, pos, []Pair{{U: 0, V: 2}}, BatchSpec{Beta: 2})[0].PowerSub
	}
	if got := minPower(b.Build(), pos); math.Abs(got-2) > 1e-12 {
		t.Errorf("min power = %v want 2", got)
	}
	// Disconnected pair.
	if got := minPower(graph.NewBuilder(3).Build(), pos); !math.IsInf(got, 1) {
		t.Errorf("disconnected pair costs %v, want +Inf", got)
	}
}

func TestLiWanWangBoundHoldsOnUDGSubgraphs(t *testing.T) {
	// Build a UDG and a sparser sub-UDG (smaller radius); verify the valid
	// per-pair facts (see LiWanWangBound's doc comment):
	//  (a) min power ≤ (min path length)^β — power of the shortest path;
	//  (b) with δmax the sample's Euclidean stretch factor,
	//      p_sub(u,v) ≤ δmax^β · d(u,v)^β;
	//  (c) the geometric sanity chain Euclid ≤ BaseLen ≤ SubLen.
	g := rng.New(1)
	pts := pointprocess.Poisson(geom.Box(12, 12), 3, g)
	base := rgg.UDG(pts, 1.0)
	sub := rgg.UDG(pts, 0.6)
	members, _ := graph.LargestComponent(sub.CSR)
	if len(members) < 10 {
		t.Skip("sparse realization")
	}
	for _, beta := range []float64{2, 3, 5} {
		samples, err := MeasureStretch(sub.CSR, base.CSR, pts, members, beta, 40, 4000, g)
		if err != nil {
			t.Fatalf("beta=%v: %v", beta, err)
		}
		deltaMax := 0.0
		for _, s := range samples {
			if es := s.EuclidStretch(); es > deltaMax {
				deltaMax = es
			}
		}
		bound := LiWanWangBound(deltaMax, beta)
		for _, s := range samples {
			if s.PowerStretch < 1-1e-9 {
				t.Fatalf("beta=%v: power stretch %v below 1", beta, s.PowerStretch)
			}
			if s.PowerSub > EdgeCost(s.SubLen, beta)+1e-9 {
				t.Fatalf("beta=%v: min power %v exceeds shortest-path-length power %v",
					beta, s.PowerSub, EdgeCost(s.SubLen, beta))
			}
			if s.Euclid > 0 && s.PowerSub > bound*EdgeCost(s.Euclid, beta)+1e-9 {
				t.Fatalf("beta=%v: power %v exceeds δmax^β·d^β = %v",
					beta, s.PowerSub, bound*EdgeCost(s.Euclid, beta))
			}
			if s.Euclid > s.BaseLen+1e-9 || s.BaseLen > s.SubLen+1e-9 {
				t.Fatalf("length chain violated: euclid %v base %v sub %v",
					s.Euclid, s.BaseLen, s.SubLen)
			}
		}
	}
}

func TestMeasureStretchErrors(t *testing.T) {
	g := rng.New(2)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	g2 := graph.NewBuilder(2).Build()
	g3 := graph.NewBuilder(3).Build()
	if _, err := MeasureStretch(g2, g3, pos, []int32{0, 1}, 2, 5, 100, g); err == nil {
		t.Error("mismatched graphs accepted")
	}
	if _, err := MeasureStretch(g2, g2, pos, []int32{0}, 2, 5, 100, g); err == nil {
		t.Error("single candidate accepted")
	}
	// Disconnected graph: no pairs can be sampled.
	if _, err := MeasureStretch(g2, g2, pos, []int32{0, 1}, 2, 5, 100, g); err == nil {
		t.Error("no-connected-pairs case should error")
	}
}

func TestTotalEdgePower(t *testing.T) {
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(3, 0)}
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1) // length 1
	b.AddEdge(1, 2) // length 2
	g := b.Build()
	if got := TotalEdgePower(g, pos, 2); got != 1+4 {
		t.Errorf("TotalEdgePower = %v", got)
	}
	if got := TotalEdgePower(g, pos, 3); got != 1+8 {
		t.Errorf("TotalEdgePower β=3 = %v", got)
	}
}

func TestIdenticalGraphsHaveUnitStretch(t *testing.T) {
	g := rng.New(3)
	pts := pointprocess.Poisson(geom.Box(8, 8), 3, g)
	udg := rgg.UDG(pts, 1.0)
	members, _ := graph.LargestComponent(udg.CSR)
	if len(members) < 5 {
		t.Skip("sparse realization")
	}
	samples, err := MeasureStretch(udg.CSR, udg.CSR, pts, members, 2, 20, 2000, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if math.Abs(s.PowerStretch-1) > 1e-9 || math.Abs(s.DistStretch-1) > 1e-9 {
			t.Fatalf("self-comparison stretch != 1: %+v", s)
		}
	}
}

// measureStretchUnfiltered is MeasureStretchCached without the subgraph
// component filter: every drawn pair is measured and the rejection test
// alone drops disconnected ones. It is the oracle the filter is checked
// against.
func measureStretchUnfiltered(sub, base *graph.CSR, pos []geom.Point, candidates []int32,
	beta float64, pairs, maxAttempts int, rng *rand.Rand) ([]StretchSample, error) {
	fanout := min(8, pairs)
	var out []StretchSample
	var batch []Pair
	m := NewMeasurer(sub, base, pos, BatchSpec{Beta: beta})
	for attempts := 0; attempts < maxAttempts && len(out) < pairs; {
		batch = batch[:0]
		for len(batch) < pairs-len(out) && attempts < maxAttempts {
			u := candidates[rng.IntN(len(candidates))]
			for f := 0; f < fanout && len(batch) < pairs-len(out) && attempts < maxAttempts; f++ {
				attempts++
				v := candidates[rng.IntN(len(candidates))]
				if u == v {
					continue
				}
				batch = append(batch, Pair{U: u, V: v})
			}
		}
		for _, s := range m.Pairs(batch) {
			if len(out) >= pairs {
				break
			}
			if beta > 0 {
				if math.IsInf(s.PowerSub, 1) || math.IsInf(s.PowerBase, 1) || s.PowerBase == 0 {
					continue
				}
			} else if math.IsInf(s.SubLen, 1) || math.IsInf(s.BaseLen, 1) || s.BaseLen == 0 {
				continue
			}
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("power: no connected pairs sampled")
	}
	return out, nil
}

// TestMeasureStretchFilterMatchesUnfiltered: dropping subgraph-disconnected
// pairs before measurement changes nothing observable — the same samples in
// the same order, the same error, and the same rng draws — on candidate sets
// where most pairs are disconnected in the subgraph (the M02 UDG-SENS shape)
// and where all are connected, with attempts to spare and exhausted.
func TestMeasureStretchFilterMatchesUnfiltered(t *testing.T) {
	g := rng.New(31)
	pts := pointprocess.Poisson(geom.Box(10, 10), 6, g)
	base := rgg.UDG(pts, 1.0).CSR
	baseLCC, _ := graph.LargestComponent(base)
	for _, r := range []float64{0.35, 0.5, 0.8} {
		sub := rgg.UDG(pts, r).CSR
		subLCC, _ := graph.LargestComponent(sub)
		for _, cand := range [][]int32{baseLCC, subLCC} {
			for _, beta := range []float64{0, 2} {
				for _, tc := range []struct{ pairs, attempts int }{{40, 1600}, {40, 30}, {5, 400}, {200, 900}} {
					for seed := rng.Seed(1); seed <= 2; seed++ {
						r1, r2 := rng.New(seed), rng.New(seed)
						got, gotErr := MeasureStretchCached(sub, base, pts, cand, beta, tc.pairs, tc.attempts, r1, nil)
						want, wantErr := measureStretchUnfiltered(sub, base, pts, cand, beta, tc.pairs, tc.attempts, r2)
						if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
							t.Fatalf("r=%v beta=%v %+v seed %d: filtered (%d samples, %v) != unfiltered (%d samples, %v)",
								r, beta, tc, seed, len(got), gotErr, len(want), wantErr)
						}
						if r1.Uint64() != r2.Uint64() {
							t.Fatalf("r=%v beta=%v %+v seed %d: the filter changed the rng draws", r, beta, tc, seed)
						}
					}
				}
			}
		}
	}
}
