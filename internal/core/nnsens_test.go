package core

import (
	"testing"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/tiling"
)

// buildTestNN builds an NN-SENS network at unit density. The paper's exact
// parameters (k = 188, tile side 8.93) need large boxes; tests use them at
// a modest multiple of the tile size and validate against the real NN base
// graph — the executable Claim 2.3.
func buildTestNN(t *testing.T, seed rng.Seed, spec tiling.NNSpec, side float64) *Network {
	t.Helper()
	g := rng.New(seed)
	box := geom.Box(side, side)
	pts := pointprocess.Poisson(box, 1.0, g)
	n, err := BuildNN(pts, box, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNNSENSBasicInvariants(t *testing.T) {
	spec := tiling.PaperNNSpec()
	n := buildTestNN(t, 1, spec, 5*spec.TileSide())
	if n.Stats.Tiles != 25 {
		t.Fatalf("tiles = %d want 25", n.Stats.Tiles)
	}
	if n.Stats.GoodTiles == 0 {
		t.Fatal("no good tiles at paper parameters")
	}
	// Claim 2.3 validation happened inside BuildNN (error on violation);
	// assert the stats agree.
	if n.Stats.MissingBaseEdges != 0 {
		t.Errorf("missing base edges: %d", n.Stats.MissingBaseEdges)
	}
	// Lattice coupling.
	for i, tn := range n.Tiles {
		if n.Lat.Open[i] != tn.Good {
			t.Fatalf("lattice/goodness mismatch at %v", n.Map.TileAt(i))
		}
	}
	// Sparsity: reps have ≤ 4 neighbors; relays ≤ 2 each unless a point
	// serves two overlapping bridge regions. Max degree 4 still holds.
	if d := n.MaxDegree(); d > 4 {
		t.Errorf("max degree %d > 4", d)
	}
}

func TestNNSENSPathBetweenAdjacentGoodTiles(t *testing.T) {
	spec := tiling.PaperNNSpec()
	n := buildTestNN(t, 2, spec, 6*spec.TileSide())
	pairs := n.AdjacentGoodPairs()
	if len(pairs) == 0 {
		t.Skip("no adjacent good pairs in this realization")
	}
	for _, pr := range pairs {
		// Figure 6: the rep path uses 4 relays = 5 hops.
		hops, ok := n.RepPathWithinBound(pr[0], pr[1], 1e18) // no per-hop bound for NN
		if hops < 0 {
			t.Fatalf("reps of adjacent good tiles %v disconnected", pr)
		}
		if hops > 5 {
			t.Fatalf("adjacent rep path has %d hops > 5", hops)
		}
		_ = ok
	}
}

func TestNNSENSPopulationCap(t *testing.T) {
	// With a tiny k the population cap k/2 bites and kills goodness.
	spec := tiling.NNSpec{A: 0.893, K: 8}
	n := buildTestNN(t, 3, spec, 4*spec.TileSide())
	// Mean tile population is ~79.7 ≫ 4, so no tile can be good.
	if n.Stats.GoodTiles != 0 {
		t.Errorf("good tiles with k=8 population cap: %d", n.Stats.GoodTiles)
	}
}

func TestNNSENSGoodTilePopulations(t *testing.T) {
	spec := tiling.PaperNNSpec()
	n := buildTestNN(t, 4, spec, 5*spec.TileSide())
	for i, tn := range n.Tiles {
		if tn.Good && tn.Population > spec.K/2 {
			t.Fatalf("good tile %v has population %d > k/2 = %d", n.Map.TileAt(i), tn.Population, spec.K/2)
		}
	}
}

func TestNNSENSElectionAccounting(t *testing.T) {
	spec := tiling.PaperNNSpec()
	g := rng.New(5)
	box := geom.Box(4*spec.TileSide(), 4*spec.TileSide())
	pts := pointprocess.Poisson(box, 1.0, g)
	tournament, err := BuildNN(pts, box, spec, Options{Election: election.AlgorithmTournament})
	if err != nil {
		t.Fatal(err)
	}
	broadcast, err := BuildNN(pts, box, spec, Options{Election: election.AlgorithmBroadcast})
	if err != nil {
		t.Fatal(err)
	}
	// Identical topology regardless of protocol (both elect max ID)…
	if tournament.Stats.GoodTiles != broadcast.Stats.GoodTiles ||
		tournament.Stats.SubgraphEdges != broadcast.Stats.SubgraphEdges {
		t.Error("election protocol changed the constructed network")
	}
	// …but different message costs (broadcast is quadratic).
	if tournament.Stats.ElectionMessages >= broadcast.Stats.ElectionMessages {
		t.Errorf("tournament (%d msgs) should beat broadcast (%d msgs)",
			tournament.Stats.ElectionMessages, broadcast.Stats.ElectionMessages)
	}
	if tournament.Stats.ElectionMessages == 0 {
		t.Error("no election messages recorded")
	}
}

func TestBuildNNRejectsInvalidSpec(t *testing.T) {
	if _, err := BuildNN(nil, geom.Box(5, 5), tiling.NNSpec{A: -1, K: 10}, Options{}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := BuildNN(nil, geom.Box(5, 5), tiling.NNSpec{A: 1, K: 1}, Options{}); err == nil {
		t.Error("K=1 spec accepted")
	}
}

// TestBuildNNRejectsAliveMask: an NN(2, k) base over a masked deployment is
// not defined, so any non-nil mask errors instead of being ignored, whatever
// its length; nil builds as before.
func TestBuildNNRejectsAliveMask(t *testing.T) {
	spec := tiling.PaperNNSpec()
	box := geom.Box(2*spec.TileSide(), 2*spec.TileSide())
	pts := pointprocess.Poisson(box, 1.0, rng.New(8))
	if len(pts) < 2 {
		t.Fatalf("deployment of %d points cannot tell a wrong-length mask", len(pts))
	}
	for _, alive := range [][]bool{make([]bool, len(pts)), {true}} {
		if _, err := BuildNN(pts, box, spec, Options{SkipBase: true, Alive: alive}); err == nil {
			t.Errorf("alive mask of length %d (deployment %d) accepted", len(alive), len(pts))
		}
	}
	if _, err := BuildNN(pts, box, spec, Options{SkipBase: true}); err != nil {
		t.Errorf("nil mask: %v", err)
	}
}

func TestNNSENSEmptyDeployment(t *testing.T) {
	spec := tiling.PaperNNSpec()
	n, err := BuildNN(nil, geom.Box(2*spec.TileSide(), 2*spec.TileSide()), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Stats.GoodTiles != 0 || len(n.Members) != 0 {
		t.Error("empty deployment should give empty network")
	}
}

func TestNNSENSSkipBase(t *testing.T) {
	spec := tiling.PaperNNSpec()
	g := rng.New(6)
	box := geom.Box(3*spec.TileSide(), 3*spec.TileSide())
	pts := pointprocess.Poisson(box, 1.0, g)
	n, err := BuildNN(pts, box, spec, Options{SkipBase: true})
	if err != nil {
		t.Fatal(err)
	}
	if n.Base != nil {
		t.Error("base graph built despite SkipBase")
	}
	if n.Stats.MissingBaseEdges != 0 {
		t.Error("missing-edge count without a base graph")
	}
}

func TestNNSENSReusesProvidedBase(t *testing.T) {
	spec := tiling.PaperNNSpec()
	g := rng.New(7)
	box := geom.Box(3*spec.TileSide(), 3*spec.TileSide())
	pts := pointprocess.Poisson(box, 1.0, g)
	base := rgg.NN(pts, spec.K)
	n, err := BuildNN(pts, box, spec, Options{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if n.Base != base {
		t.Error("provided base not reused")
	}
}
