package tiling

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestNNSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec NNSpec
		ok   bool
	}{
		{"paper", PaperNNSpec(), true},
		{"zero A", NNSpec{A: 0, K: 10}, false},
		{"K=1", NNSpec{A: 1, K: 1}, false},
		{"A NaN", NNSpec{A: math.NaN(), K: 10}, false},
		{"A +Inf", NNSpec{A: math.Inf(1), K: 10}, false},
		{"A -Inf", NNSpec{A: math.Inf(-1), K: 10}, false},
	} {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if PaperNNSpec().TileSide() != 8.93 {
		t.Errorf("TileSide = %v", PaperNNSpec().TileSide())
	}
}

func TestNNRegionString(t *testing.T) {
	if NC0.String() != "C0" || NDisk(Right).String() != "C-right" ||
		NBridge(Top).String() != "E-top" || NNone.String() != "none" {
		t.Error("NRegion String wrong")
	}
}

func TestNNClassifyDisks(t *testing.T) {
	g := (NNSpec{A: 1, K: 100}).Compile()
	if r := g.Classify(geom.Pt(0, 0)); r != NC0 {
		t.Errorf("center = %v", r)
	}
	if r := g.Classify(geom.Pt(4, 0)); r != NDiskRight {
		t.Errorf("right disk = %v", r)
	}
	if r := g.Classify(geom.Pt(-4, 0)); r != NDiskLeft {
		t.Errorf("left disk = %v", r)
	}
	if r := g.Classify(geom.Pt(0, 4)); r != NDiskTop {
		t.Errorf("top disk = %v", r)
	}
	if r := g.Classify(geom.Pt(0, -4)); r != NDiskBottom {
		t.Errorf("bottom disk = %v", r)
	}
	// Far corner of the tile is in no region.
	if r := g.Classify(geom.Pt(4.9, 4.9)); r != NNone {
		t.Errorf("corner = %v", r)
	}
	// Outside the tile is in no region.
	if r := g.Classify(geom.Pt(6, 0)); r != NNone {
		t.Errorf("outside = %v", r)
	}
}

func TestNNBridgeBetweenDisks(t *testing.T) {
	// The bridge E-right must contain the midpoint between C0 and Cr
	// (verified analytically in DESIGN.md-era analysis: (2a, 0) works).
	g := (NNSpec{A: 1, K: 100}).Compile()
	if !g.BridgeContains(Right, geom.Pt(2, 0)) {
		t.Error("E-right should contain (2a, 0)")
	}
	if got := g.Classify(geom.Pt(2, 0)); got != NBridgeRight {
		t.Errorf("Classify(2a, 0) = %v", got)
	}
	// By symmetry for the other directions.
	if !g.BridgeContains(Left, geom.Pt(-2, 0)) ||
		!g.BridgeContains(Top, geom.Pt(0, 2)) ||
		!g.BridgeContains(Bottom, geom.Pt(0, -2)) {
		t.Error("symmetric bridge points missing")
	}
	// E-right excludes points inside the disks.
	if g.BridgeContains(Right, geom.Pt(0.5, 0)) {
		t.Error("bridge should exclude C0 interior")
	}
	if g.BridgeContains(Right, geom.Pt(4, 0.5)) {
		t.Error("bridge should exclude Cr interior")
	}
	// E-right excludes points near the tile boundary toward the neighbor.
	if g.BridgeContains(Right, geom.Pt(4.95, 0)) {
		t.Error("bridge should not reach the tile edge")
	}
}

// TestNNBridgeDefiningProperty checks the region's defining property on a
// sample of member points: a member must lie inside every largest circle
// centered on the C0/Cd boundary circles (up to discretization tolerance).
func TestNNBridgeDefiningProperty(t *testing.T) {
	const a = 1.0
	g := (NNSpec{A: a, K: 100}).Compile()
	r := rng.New(5)
	union := geom.NewRect(geom.Pt(-5*a, -5*a), geom.Pt(15*a, 5*a))
	members := 0
	for i := 0; i < 30000 && members < 300; i++ {
		p := geom.Pt(r.Float64()*10*a-5*a, r.Float64()*10*a-5*a)
		if !g.BridgeContains(Right, p) {
			continue
		}
		members++
		// Check against fresh random boundary points of both circles.
		for j := 0; j < 100; j++ {
			theta := r.Float64() * 2 * math.Pi
			var q geom.Point
			if j%2 == 0 {
				q = geom.Pt(a*math.Cos(theta), a*math.Sin(theta))
			} else {
				q = geom.Pt(4*a+a*math.Cos(theta), a*math.Sin(theta))
			}
			rmax := insetDistance(union, q)
			if p.Dist(q) > rmax+0.05*a {
				t.Fatalf("bridge member %v violates defining property at q=%v: d=%v rmax=%v",
					p, q, p.Dist(q), rmax)
			}
		}
	}
	if members < 50 {
		t.Fatalf("too few bridge members sampled: %d", members)
	}
}

// TestNNPathGuarantee is the geometric core of Claim 2.3: for any positions
// of the elected points, consecutive hops of the rep(t) → Er → Cr → Cl(tr)
// → El(tr) → rep(tr) path are guaranteed edges of NN(2, k) when both tiles
// are good. Geometrically: (i) every ball around a C0 point staying within
// t∪tr contains Er; (ii) every ball around a Cr point staying within t∪tr
// contains Er and the neighbor's Cl disk.
func TestNNPathGuarantee(t *testing.T) {
	const a = 1.0
	g := (NNSpec{A: a, K: 100}).Compile()
	r := rng.New(6)
	union := geom.NewRect(geom.Pt(-5*a, -5*a), geom.Pt(15*a, 5*a))
	clNeighbor := geom.NewCircle(geom.Pt(6*a, 0), a) // Cl of tr in local coords

	// Sample bridge members once.
	var bridge []geom.Point
	for i := 0; i < 50000 && len(bridge) < 200; i++ {
		p := geom.Pt(r.Float64()*10*a-5*a, r.Float64()*10*a-5*a)
		if g.BridgeContains(Right, p) {
			bridge = append(bridge, p)
		}
	}
	if len(bridge) < 50 {
		t.Fatalf("too few bridge samples: %d", len(bridge))
	}

	sampleDisk := func(c geom.Circle) geom.Point {
		for {
			p := geom.Pt(
				c.Center.X+(r.Float64()*2-1)*c.R,
				c.Center.Y+(r.Float64()*2-1)*c.R,
			)
			if c.Contains(p) {
				return p
			}
		}
	}

	for i := 0; i < 500; i++ {
		rep := sampleDisk(g.c0)
		cr := sampleDisk(g.disks[Right])
		// (i) ball at rep within t∪tr contains each bridge member.
		rRep := insetDistance(union, rep)
		for _, b := range bridge {
			if rep.Dist(b) > rRep+1e-9 {
				t.Fatalf("ball at rep %v (r=%v) misses bridge point %v", rep, rRep, b)
			}
		}
		// (ii) ball at cr within t∪tr contains bridge and neighbor Cl disk.
		rCr := insetDistance(union, cr)
		for _, b := range bridge {
			if cr.Dist(b) > rCr+1e-9 {
				t.Fatalf("ball at Cr point %v (r=%v) misses bridge point %v", cr, rCr, b)
			}
		}
		if cr.Dist(clNeighbor.Center)+clNeighbor.R > rCr+1e-9 {
			t.Fatalf("ball at Cr point %v (r=%v) does not contain neighbor Cl", cr, rCr)
		}
	}
}

func TestNNTileGood(t *testing.T) {
	g := (NNSpec{A: 1, K: 40}).Compile()
	occupied := []geom.Point{
		{X: 0, Y: 0},                // C0
		{X: 4, Y: 0}, {X: -4, Y: 0}, // Cr, Cl
		{X: 0, Y: 4}, {X: 0, Y: -4}, // Ct, Cb
		{X: 2, Y: 0}, {X: -2, Y: 0}, // Er, El
		{X: 0, Y: 2}, {X: 0, Y: -2}, // Et, Eb
	}
	if !g.TileGood(occupied) {
		t.Error("fully-occupied tile not good")
	}
	if g.TileGood(occupied[:8]) {
		t.Error("tile missing E-bottom reported good")
	}
	// Population cap: more than K/2 points → bad even if occupied.
	crowded := append([]geom.Point{}, occupied...)
	for i := 0; i < 15; i++ { // 9 + 15 = 24 > 40/2
		crowded = append(crowded, geom.Pt(3.5+0.01*float64(i), 3.5))
	}
	if g.TileGood(crowded) {
		t.Error("overcrowded tile reported good")
	}
	if g.TileGood(nil) {
		t.Error("empty tile reported good")
	}
}

func TestNNOccupied(t *testing.T) {
	g := (NNSpec{A: 1, K: 40}).Compile()
	have, count := g.Occupied([]geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 4.9, Y: 4.9}})
	if count != 3 {
		t.Errorf("count = %d", count)
	}
	if !have[NC0] || !have[NBridgeRight] || !have[NNone] {
		t.Errorf("occupancy = %v", have)
	}
	if have[NDiskRight] {
		t.Error("spurious disk occupancy")
	}
}

func TestNNBridgeAreaPositive(t *testing.T) {
	g := (NNSpec{A: 0.893, K: 188}).Compile()
	// Grid-estimate every region's area from Classify: n×n probes at the
	// cell centres of the tile.
	const n = 150
	side := g.Spec.TileSide()
	cell := side / n
	var hits [numNRegions]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := geom.Pt(-side/2+(float64(i)+0.5)*cell, -side/2+(float64(j)+0.5)*cell)
			hits[g.Classify(p)]++
		}
	}
	area := func(r NRegion) float64 { return float64(hits[r]) * cell * cell }
	for _, d := range Directions {
		a := area(NBridge(d))
		if a <= 0 {
			t.Errorf("bridge %v area = %v", d, a)
		}
		// Bridges are larger than the disks for this geometry.
		if a < g.c0.Area() {
			t.Errorf("bridge %v area %v unexpectedly below disk area %v", d, a, g.c0.Area())
		}
	}
	if c0 := area(NC0); math.Abs(c0-g.c0.Area()) > 0.05*g.c0.Area() {
		t.Errorf("C0 grid area %v, want ≈ %v", c0, g.c0.Area())
	}
	// The tile corners lie in no region.
	if r := g.Classify(geom.Pt(side/2, side/2)); r != NNone {
		t.Errorf("tile corner classified %v, want none", r)
	}
}

func TestNNGoodProbabilityReasonableAtPaperParams(t *testing.T) {
	// At the paper's k = 188, a = 0.893, λ = 1 the tile-good probability
	// should be well above zero (the paper claims > 0.5927; we verify the
	// order of magnitude here and measure precisely in the experiments).
	spec := PaperNNSpec()
	gm := spec.Compile()
	g := rng.New(7)
	pr := MonteCarloGoodProbability(spec.TileSide(), 1.0, gm.TileGood, 400, g)
	if pr.P < 0.3 {
		t.Errorf("P(good) at paper params = %v — implausibly low", pr.P)
	}
}

func TestMonteCarloGoodProbabilityDegenerate(t *testing.T) {
	g := rng.New(8)
	always := func([]geom.Point) bool { return true }
	never := func([]geom.Point) bool { return false }
	if p := MonteCarloGoodProbability(1, 1, always, 50, g); p.P != 1 {
		t.Errorf("always-good P = %v", p.P)
	}
	if p := MonteCarloGoodProbability(1, 1, never, 50, g); p.P != 0 {
		t.Errorf("never-good P = %v", p.P)
	}
}

func TestNNPopulationMatchesPoisson(t *testing.T) {
	// Tile population under the MC sampler should match Poisson(λ·side²).
	spec := NNSpec{A: 0.5, K: 1000}
	gm := spec.Compile()
	g := rng.New(9)
	var total int
	const trials = 2000
	counts := func(pts []geom.Point) bool {
		_, c := gm.Occupied(pts)
		total += c
		return true
	}
	MonteCarloGoodProbability(spec.TileSide(), 2.0, counts, trials, g)
	mean := float64(total) / trials
	want := 2.0 * spec.TileSide() * spec.TileSide()
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean population %v want %v", mean, want)
	}
}
