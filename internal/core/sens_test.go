package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/tiling"
)

// buildTestUDG builds a moderately sized supercritical UDG-SENS network.
func buildTestUDG(t *testing.T, seed rng.Seed, lambda float64, side float64) *Network {
	t.Helper()
	g := rng.New(seed)
	box := geom.Box(side, side)
	pts := pointprocess.Poisson(box, lambda, g)
	n, err := BuildUDG(pts, box, tiling.DefaultUDGSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestUDGSENSBasicInvariants(t *testing.T) {
	// λ = 16 is comfortably above the repaired geometry's λs ≈ 11.7.
	n := buildTestUDG(t, 1, 16, 24)
	if n.Stats.Tiles == 0 {
		t.Fatal("no tiles mapped")
	}
	if n.Stats.GoodTiles == 0 {
		t.Fatal("no good tiles at λ=16")
	}
	if n.GoodFraction() < 0.6 {
		t.Errorf("good fraction %v too low for λ=16", n.GoodFraction())
	}
	if len(n.Members) == 0 {
		t.Fatal("empty network")
	}
	// P1: sparsity.
	if d := n.MaxDegree(); d > 4 {
		t.Errorf("max degree %d > 4 (P1 violated)", d)
	}
	// Every SENS edge is a base UDG edge (repaired-mode invariant, already
	// enforced by the constructor — double check stats).
	if n.Stats.MissingBaseEdges != 0 {
		t.Errorf("missing base edges: %d", n.Stats.MissingBaseEdges)
	}
	// The network uses only a fraction of all nodes (the paper's point).
	if af := n.ActiveFraction(); af <= 0 || af >= 0.5 {
		t.Errorf("active fraction %v out of expected range (0, 0.5)", af)
	}
	// Lattice coupling matches tile goodness.
	for i, tn := range n.Tiles {
		x, y := n.Lat.XY(int32(i))
		if c := n.Map.PhiInv(x, y); n.Tile(c) != &n.Tiles[i] || n.Lat.IsOpen(x, y) != tn.Good {
			t.Fatalf("lattice/goodness mismatch at %v", c)
		}
	}
}

func TestUDGSENSEdgeLengthsWithinRadius(t *testing.T) {
	n := buildTestUDG(t, 2, 16, 18)
	for u := int32(0); int(u) < n.Graph.N; u++ {
		for _, v := range n.Graph.Neighbors(u) {
			if d := n.Pts[u].Dist(n.Pts[v]); d > n.UDGSpec.Radius+1e-9 {
				t.Fatalf("SENS edge (%d,%d) length %v exceeds radius", u, v, d)
			}
		}
	}
}

func TestUDGSENSClaim21PathBound(t *testing.T) {
	// Claim 2.1: reps of adjacent good tiles connect via ≤ 3 hops of length
	// ≤ 1 each (cu ≤ 3).
	n := buildTestUDG(t, 3, 16, 18)
	pairs := n.AdjacentGoodPairs()
	if len(pairs) == 0 {
		t.Fatal("no adjacent good pairs")
	}
	for _, pr := range pairs {
		hops, ok := n.RepPathWithinBound(pr[0], pr[1], 1.0)
		if hops < 0 {
			t.Fatalf("reps of adjacent good tiles %v disconnected", pr)
		}
		if !ok {
			t.Fatalf("per-hop bound violated for %v", pr)
		}
		if hops > 3 {
			t.Fatalf("adjacent rep path %v has %d hops > 3", pr, hops)
		}
	}
}

func TestUDGSENSLiteralModeEmpty(t *testing.T) {
	g := rng.New(4)
	box := geom.Box(12, 12)
	pts := pointprocess.Poisson(box, 5, g)
	n, err := BuildUDG(pts, box, tiling.PaperUDGSpec(), Options{SkipBase: true})
	if err != nil {
		t.Fatal(err)
	}
	if n.Stats.GoodTiles != 0 {
		t.Errorf("literal mode produced %d good tiles — regions should be empty", n.Stats.GoodTiles)
	}
	if len(n.Members) != 0 {
		t.Errorf("literal mode produced a network with %d members", len(n.Members))
	}
}

func TestUDGSENSRelaxedModeHandshakes(t *testing.T) {
	g := rng.New(5)
	box := geom.Box(16, 16)
	pts := pointprocess.Poisson(box, 4, g)
	n, err := BuildUDG(pts, box, tiling.RelaxedUDGSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The relaxed bands are occupied easily at λ=4 (area ≈ 0.167 each… the
	// point is the mode runs; goodness is plentiful at this density).
	if n.Stats.GoodTiles == 0 {
		t.Fatal("relaxed mode produced no good tiles at λ=4")
	}
	if n.Stats.HandshakeAttempts == 0 {
		t.Fatal("no handshakes attempted")
	}
	// Relaxed mode must never install an edge longer than the radius:
	// failures are allowed, invalid edges are not.
	for u := int32(0); int(u) < n.Graph.N; u++ {
		for _, v := range n.Graph.Neighbors(u) {
			if d := n.Pts[u].Dist(n.Pts[v]); d > 1+1e-9 {
				t.Fatalf("relaxed SENS kept an overlong edge: %v", d)
			}
		}
	}
}

// overlongEdges counts the edges of n longer than its connection radius.
func overlongEdges(n *Network) int {
	r2 := n.UDGSpec.Radius * n.UDGSpec.Radius
	count := 0
	for u := int32(0); int(u) < n.Graph.N; u++ {
		for _, v := range n.Graph.Neighbors(u) {
			if v > u && n.Pts[u].Dist2(n.Pts[v]) > r2 {
				count++
			}
		}
	}
	return count
}

// TestUDGSENSRelaxedSkipBaseMatchesBase checks that the relaxed handshake
// needs no base graph: a SkipBase build installs the same edges, and counts
// the same handshakes and failures, as a build with the UDG base.
func TestUDGSENSRelaxedSkipBaseMatchesBase(t *testing.T) {
	box := geom.Box(18, 18)
	pts := pointprocess.Poisson(box, 5, rng.New(11))
	withBase, err := BuildUDG(pts, box, tiling.RelaxedUDGSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	skip, err := BuildUDG(pts, box, tiling.RelaxedUDGSpec(), Options{SkipBase: true})
	if err != nil {
		t.Fatal(err)
	}
	if withBase.Stats.HandshakeFailures == 0 {
		t.Fatal("fixture has no failing handshake")
	}
	if diff := graph.FirstDiff(skip.Graph, withBase.Graph); diff != "" {
		t.Errorf("SkipBase graph differs from the base build: %s (%d overlong edges)", diff, overlongEdges(skip))
	}
	if a, b := skip.Stats, withBase.Stats; a.HandshakeAttempts != b.HandshakeAttempts || a.HandshakeFailures != b.HandshakeFailures {
		t.Errorf("SkipBase handshakes %d attempted / %d failed, base build %d / %d",
			a.HandshakeAttempts, a.HandshakeFailures, b.HandshakeAttempts, b.HandshakeFailures)
	}
}

func TestUDGSENSSubcritical(t *testing.T) {
	// Far below λs almost no tile is good.
	n := buildTestUDG(t, 6, 2, 18)
	if f := n.GoodFraction(); f > 0.05 {
		t.Errorf("good fraction %v at λ=2 — expected near zero", f)
	}
}

func TestUDGSENSGoodFractionMatchesAnalytic(t *testing.T) {
	n := buildTestUDG(t, 7, 14, 45)
	want := n.UDGSpec.GoodProbability(14)
	got := n.GoodFraction()
	if math.Abs(got-want) > 0.05 {
		t.Errorf("good fraction %v vs analytic %v", got, want)
	}
}

func TestBuildUDGRejectsInvalidSpec(t *testing.T) {
	bad := tiling.DefaultUDGSpec()
	bad.Xe = 0.9
	if _, err := BuildUDG(nil, geom.Box(5, 5), bad, Options{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestBuildUDGRejectsMismatchedBase(t *testing.T) {
	g := rng.New(8)
	box := geom.Box(6, 6)
	pts := pointprocess.Poisson(box, 3, g)
	other := append(append([]geom.Point(nil), pts...), geom.Pt(1, 1)) // one extra vertex
	base := rgg.UDG(other, 1)
	if _, err := BuildUDG(pts, box, tiling.DefaultUDGSpec(), Options{Base: base}); err == nil {
		t.Error("mismatched base accepted")
	}
}

func TestUDGSENSEmptyDeployment(t *testing.T) {
	n, err := BuildUDG(nil, geom.Box(6, 6), tiling.DefaultUDGSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Stats.GoodTiles != 0 || len(n.Members) != 0 {
		t.Error("empty deployment should give empty network")
	}
	if n.MaxDegree() != 0 {
		t.Error("empty network degree")
	}
	if n.ActiveFraction() != 0 {
		t.Error("empty active fraction")
	}
}

func TestSampleRepStretch(t *testing.T) {
	n := buildTestUDG(t, 9, 16, 30)
	g := rng.New(10)
	samples := n.SampleRepStretch(60, g)
	if len(samples) != 60 {
		t.Fatalf("got %d samples", len(samples))
	}
	for _, s := range samples {
		if s.SubLen < s.Euclid-1e-9 {
			t.Fatalf("path shorter than Euclidean distance: %+v", s)
		}
		if s.Stretch() < 1-1e-9 {
			t.Fatalf("stretch below 1: %+v", s)
		}
		if s.Hops <= 0 || s.LatticeD < 0 {
			t.Fatalf("degenerate sample: %+v", s)
		}
	}
}

func TestEmptyBoxProbabilityBounds(t *testing.T) {
	n := buildTestUDG(t, 11, 16, 24)
	g := rng.New(12)
	// Tiny boxes are almost always empty; huge boxes almost never.
	small := n.EmptyBoxProbability(0.05, 300, g)
	large := n.EmptyBoxProbability(12, 300, g)
	if small.P < 0.8 {
		t.Errorf("tiny box empty probability %v — expected near 1", small.P)
	}
	if large.P > 0.05 {
		t.Errorf("huge box empty probability %v — expected near 0", large.P)
	}
	// Out-of-range ℓ yields an empty measurement.
	if got := n.EmptyBoxProbability(100, 10, g); got.N != 0 {
		t.Errorf("oversized box should measure nothing: %+v", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	n := buildTestUDG(t, 13, 16, 18)
	h := n.DegreeHistogram()
	if len(h) > 5 {
		t.Fatalf("degrees above 4 present: %v", h)
	}
	total := 0
	for d, c := range h {
		if d == 0 && c > 0 {
			t.Errorf("members with degree 0: %d", c)
		}
		total += c
	}
	if total != len(n.Members) {
		t.Errorf("histogram total %d != members %d", total, len(n.Members))
	}
}

// twoComponentNetwork hand-builds a Network whose good-tile representatives
// sit in two disconnected components — the pre-prune configuration that made
// the old SampleRepStretch spin forever on cross-component draws.
func twoComponentNetwork(reps []int32) *Network {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // component A
	b.AddEdge(2, 3) // component B
	tiles := make([]TileNodes, 4)
	for i, r := range reps {
		tiles[i] = TileNodes{Good: true, Rep: r}
	}
	return &Network{
		Pts:   []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(1.5, 0.5), geom.Pt(2.5, 0.5), geom.Pt(3.5, 0.5)},
		Graph: b.Build(),
		InNet: []bool{true, true, true, true},
		Map:   tiling.Map{Tiling: tiling.Tiling{Side: 1}, W: 4, H: 1},
		Tiles: tiles,
	}
}

func TestSampleRepStretchTerminatesOnDisconnectedReps(t *testing.T) {
	// Every rep pair crosses the component cut: sampling must hit its
	// attempt cap and return what it collected (nothing) instead of looping.
	n := twoComponentNetwork([]int32{0, 2})
	if got := n.SampleRepStretch(10, rng.New(3)); len(got) != 0 {
		t.Fatalf("cross-component sampling returned %d samples", len(got))
	}

	// With reps on both sides of the cut, only same-component pairs are
	// accepted and every accepted sample is finite.
	n = twoComponentNetwork([]int32{0, 1, 2, 3})
	samples := n.SampleRepStretch(25, rng.New(4))
	if len(samples) == 0 {
		t.Fatal("no same-component samples collected")
	}
	if len(samples) > 25 {
		t.Fatalf("collected %d samples, asked for 25", len(samples))
	}
	for _, s := range samples {
		if math.IsInf(s.SubLen, 1) || s.Hops <= 0 {
			t.Fatalf("accepted a cross-component sample: %+v", s)
		}
	}
}
