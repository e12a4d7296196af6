package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/pointprocess"
	"repro/internal/rng"
	"repro/internal/tiling"
)

func TestSimulateFailuresLowRate(t *testing.T) {
	n := buildTestUDG(t, 20, 18, 24)
	g := rng.New(21)
	rep, err := SimulateFailures(n, 0.05, g)
	if err != nil {
		t.Fatal(err)
	}
	// ~5% of nodes fail.
	frac := float64(rep.FailedTotal) / float64(len(n.Pts))
	if frac < 0.03 || frac > 0.07 {
		t.Errorf("failure fraction = %v", frac)
	}
	// Rebuild at λ_eff = 0.95·18 ≈ 17.1 > λs stays healthy.
	if rep.Rebuilt.GoodFraction() < 0.5 {
		t.Errorf("rebuilt good fraction %v too low after 5%% failures",
			rep.Rebuilt.GoodFraction())
	}
	if rep.Rebuilt.MaxDegree() > 4 {
		t.Errorf("rebuilt max degree %d", rep.Rebuilt.MaxDegree())
	}
}

// TestSimulateFailuresRelaxedRebuildInRange checks the rebuild, which runs
// without a base graph, against the relaxed handshake: it must drop every
// edge longer than the radius.
func TestSimulateFailuresRelaxedRebuildInRange(t *testing.T) {
	box := geom.Box(18, 18)
	pts := pointprocess.Poisson(box, 5, rng.New(11))
	n, err := BuildUDG(pts, box, tiling.RelaxedUDGSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateFailures(n, 0.05, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rebuilt.Stats.SubgraphEdges == 0 {
		t.Fatal("rebuild has no edges")
	}
	if c := overlongEdges(rep.Rebuilt); c > 0 {
		t.Errorf("rebuilt relaxed network kept %d edges longer than r", c)
	}
}

func TestSimulateFailuresCrossesThreshold(t *testing.T) {
	// λ = 14, q = 0.5 → λ_eff = 7 ≪ λs ≈ 11.76: the rebuild must collapse.
	n := buildTestUDG(t, 22, 14, 24)
	g := rng.New(23)
	rep, err := SimulateFailures(n, 0.5, g)
	if err != nil {
		t.Fatal(err)
	}
	healthyBefore := n.GoodFraction()
	if healthyBefore < 0.55 {
		t.Skip("realization below threshold before failures")
	}
	if rep.Rebuilt.GoodFraction() > 0.25 {
		t.Errorf("rebuilt good fraction %v after 50%% failures — should collapse",
			rep.Rebuilt.GoodFraction())
	}
}

func TestSimulateFailuresDegradationMonotone(t *testing.T) {
	n := buildTestUDG(t, 24, 16, 24)
	g := rng.New(25)
	prev := 1.1
	for _, q := range []float64{0.0, 0.2, 0.5, 0.8} {
		rep, err := SimulateFailures(n, q, g)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SurvivingFraction > prev+0.05 {
			t.Errorf("surviving fraction rose with failure rate at q=%v: %v > %v",
				q, rep.SurvivingFraction, prev)
		}
		prev = rep.SurvivingFraction
		if q == 0 && rep.SurvivingFraction != 1 {
			t.Errorf("q=0 should not degrade: %v", rep.SurvivingFraction)
		}
	}
}

func TestSimulateFailuresNN(t *testing.T) {
	spec := tiling.PaperNNSpec()
	n := buildTestNN(t, 26, spec, 4*spec.TileSide())
	g := rng.New(27)
	rep, err := SimulateFailures(n, 0.1, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rebuilt == nil || rep.Rebuilt.Kind != KindNN {
		t.Fatal("NN rebuild missing")
	}
}

// TestSmallComponentWaste checks the waste count against its definition:
// every vertex with an edge is an elected node of a good tile, so the waste
// is exactly the connected non-members. The NN-SENS realization has one
// isolated pair of good tiles whose five-edge path runs through outer-disk
// relays, which must be counted too.
func TestSmallComponentWaste(t *testing.T) {
	spec := tiling.PaperNNSpec()
	for _, tc := range []struct {
		name      string
		n         *Network
		wantTiles int
	}{
		{"udg", buildTestUDG(t, 28, 16, 24), -1},
		{"nn", buildTestNN(t, 5, spec, 4*spec.TileSide()), 2},
	} {
		nodes, tiles := tc.n.SmallComponentWaste()
		want := 0
		for u := int32(0); int(u) < tc.n.Graph.N; u++ {
			if !tc.n.InNet[u] && tc.n.Graph.Degree(u) > 0 {
				want++
			}
		}
		if nodes != want {
			t.Errorf("%s: %d wasted nodes, want %d connected non-members", tc.name, nodes, want)
		}
		if (nodes > 0) != (tiles > 0) || (tc.wantTiles >= 0 && tiles != tc.wantTiles) {
			t.Errorf("%s: %d wasted nodes over %d tiles", tc.name, nodes, tiles)
		}
	}
}

func TestInhomogeneousDeployment(t *testing.T) {
	g := rng.New(29)
	box := geom.Box(20, 10)
	grad := pointprocess.LinearGradient(box, 2, 10)
	pts := pointprocess.Inhomogeneous(box, grad, 10, g)
	// Expected count: ∫ intensity = mean(2,10) · area = 6 · 200 = 1200.
	if len(pts) < 1000 || len(pts) > 1400 {
		t.Errorf("inhomogeneous count = %d want ≈1200", len(pts))
	}
	// Left half must be sparser than the right half.
	left, right := 0, 0
	for _, p := range pts {
		if p.X < 10 {
			left++
		} else {
			right++
		}
	}
	if left >= right {
		t.Errorf("gradient not realized: left %d right %d", left, right)
	}
	// Degenerate cases.
	if got := pointprocess.Inhomogeneous(box, grad, 0, g); got != nil {
		t.Error("maxLambda=0 should give nil")
	}
	hot := pointprocess.RadialHotspot(geom.Pt(5, 5), 20, 1, 3)
	if hot(geom.Pt(5, 5)) != 20 || hot(geom.Pt(15, 5)) != 1 {
		t.Error("hotspot endpoints wrong")
	}
	if v := hot(geom.Pt(5+1.5, 5)); v <= 1 || v >= 20 {
		t.Errorf("hotspot midpoint = %v", v)
	}
}
