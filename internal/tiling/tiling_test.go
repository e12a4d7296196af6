package tiling

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestTileOfAndCenter(t *testing.T) {
	tl := Tiling{Side: 2}
	if c := tl.TileOf(geom.Pt(0.5, 0.5)); c != (Coord{0, 0}) {
		t.Errorf("TileOf = %v", c)
	}
	if c := tl.TileOf(geom.Pt(-0.5, 3.5)); c != (Coord{-1, 1}) {
		t.Errorf("TileOf negative = %v", c)
	}
	if p := tl.Center(Coord{0, 0}); p != geom.Pt(1, 1) {
		t.Errorf("Center = %v", p)
	}
	r := tl.Rect(Coord{1, 2})
	if r.Min != geom.Pt(2, 4) || r.Max != geom.Pt(4, 6) {
		t.Errorf("Rect = %v", r)
	}
	// Local coordinates of a tile corner are (±side/2, ±side/2).
	l := tl.Local(Coord{1, 2}, geom.Pt(2, 4))
	if l != geom.Pt(-1, -1) {
		t.Errorf("Local = %v", l)
	}
}

func TestTileOfConsistentWithRect(t *testing.T) {
	tl := Tiling{Side: 1.5}
	g := rng.New(1)
	for i := 0; i < 1000; i++ {
		p := geom.Pt(g.Float64()*20-10, g.Float64()*20-10)
		c := tl.TileOf(p)
		if !tl.Rect(c).Contains(p) {
			t.Fatalf("point %v not in its tile rect %v", p, tl.Rect(c))
		}
	}
}

func TestNeighborAndDirections(t *testing.T) {
	c := Coord{3, 4}
	if c.Neighbor(Right) != (Coord{4, 4}) || c.Neighbor(Left) != (Coord{2, 4}) ||
		c.Neighbor(Top) != (Coord{3, 5}) || c.Neighbor(Bottom) != (Coord{3, 3}) {
		t.Error("Neighbor wrong")
	}
	for _, d := range Directions {
		if d.Opposite().Opposite() != d {
			t.Errorf("Opposite not involutive for %v", d)
		}
		dx, dy := d.Vec()
		ox, oy := d.Opposite().Vec()
		if dx+ox != 0 || dy+oy != 0 {
			t.Errorf("Opposite vec not negated for %v", d)
		}
	}
	if Right.String() != "right" || Bottom.String() != "bottom" {
		t.Error("Direction String wrong")
	}
}

func TestMapPhiRoundtrip(t *testing.T) {
	m := NewMap(geom.Box(10, 8), 1.5)
	// Full tiles: floor(10/1.5)=6 → i ∈ [0, 5]; floor(8/1.5)=5 → j ∈ [0, 4].
	if m.W != 6 || m.H != 5 {
		t.Fatalf("map dims %dx%d", m.W, m.H)
	}
	if m.Tiles() != 30 {
		t.Errorf("Tiles = %d", m.Tiles())
	}
	for x := 0; x < m.W; x++ {
		for y := 0; y < m.H; y++ {
			c := m.PhiInv(x, y)
			gx, gy, ok := m.Phi(c)
			if !ok || gx != x || gy != y {
				t.Fatalf("roundtrip failed at (%d,%d)", x, y)
			}
		}
	}
	// Out-of-window tiles map to ok=false.
	if _, _, ok := m.Phi(Coord{-1, 0}); ok {
		t.Error("tile left of window should not map")
	}
	if _, _, ok := m.Phi(Coord{6, 0}); ok {
		t.Error("tile right of window should not map")
	}
}

func TestMapOffsetBox(t *testing.T) {
	// Box not anchored at the origin.
	box := geom.NewRect(geom.Pt(3.1, -2.9), geom.Pt(9.1, 4.1))
	m := NewMap(box, 1.0)
	if m.Tiles() == 0 {
		t.Fatal("no tiles mapped")
	}
	// Every mapped tile must lie fully inside the box.
	for x := 0; x < m.W; x++ {
		for y := 0; y < m.H; y++ {
			r := m.Tiling.Rect(m.PhiInv(x, y))
			if !box.ContainsRect(r) {
				t.Fatalf("tile %v rect %v leaves box %v", m.PhiInv(x, y), r, box)
			}
		}
	}
}

func TestMapEmptyBox(t *testing.T) {
	m := NewMap(geom.Box(0.5, 0.5), 1.0)
	if m.Tiles() != 0 {
		t.Errorf("tiny box should map no tiles, got %d", m.Tiles())
	}
}

func TestUDGSpecValidate(t *testing.T) {
	with := func(s UDGSpec, f func(*UDGSpec)) UDGSpec { f(&s); return s }
	def := DefaultUDGSpec()
	type validateCase struct {
		name string
		spec UDGSpec
		ok   bool
	}
	cases := []validateCase{
		{"default", def, true},
		{"paper literal", PaperUDGSpec(), true},
		{"relaxed", RelaxedUDGSpec(), true},
		// 0.7+0.25+0.25 = 1.2 > 1.
		{"rep↔relay reach", with(def, func(s *UDGSpec) { s.Xe = 0.7 }), false},
		// Xe−Re = 0.2 < 0.25.
		{"relay overlaps C0", with(def, func(s *UDGSpec) { s.Re = 0.3 }), false},
		// 3−1+0.5 = 2.5 > 1.
		{"cross-boundary reach", with(def, func(s *UDGSpec) { s.Side = 3 }), false},
		{"zero spec", UDGSpec{}, false},
	}
	// Every field must be finite, including the ones the mode does not read
	// (BandH in repaired mode, Re and Xe in relaxed mode).
	fields := []struct {
		name string
		base UDGSpec
		set  func(*UDGSpec, float64)
	}{
		{"Side", def, func(s *UDGSpec, v float64) { s.Side = v }},
		{"R0", def, func(s *UDGSpec, v float64) { s.R0 = v }},
		{"Re", RelaxedUDGSpec(), func(s *UDGSpec, v float64) { s.Re = v }},
		{"Xe", RelaxedUDGSpec(), func(s *UDGSpec, v float64) { s.Xe = v }},
		{"BandH", def, func(s *UDGSpec, v float64) { s.BandH = v }},
		{"Radius", def, func(s *UDGSpec, v float64) { s.Radius = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cases = append(cases, validateCase{fmt.Sprintf("%s=%v", f.name, v), with(f.base, func(s *UDGSpec) { f.set(s, v) }), false})
		}
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// classifyRef is the test oracle for UDGGeometry.Classify, written straight
// from each mode's region definitions with no shared code: C0 first, then
// the relay regions in Directions order.
func classifyRef(s UDGSpec, p geom.Point) URegion {
	inDisk := func(cx, cy, r float64) bool {
		dx, dy := p.X-cx, p.Y-cy
		return dx*dx+dy*dy <= r*r
	}
	if inDisk(0, 0, s.R0) {
		return UC0
	}
	half := s.Side / 2
	inTile := -half <= p.X && p.X <= half && -half <= p.Y && p.Y <= half
	for _, d := range Directions {
		dx, dy := d.Vec()
		fx, fy := float64(dx), float64(dy)
		var in bool
		switch s.Mode {
		case GeometryRepaired:
			// The disk of radius Re centred Xe toward the edge.
			in = inDisk(fx*s.Xe, fy*s.Xe, s.Re)
		case GeometryRelaxed:
			// The band from C0's radius to the edge, BandH either side of
			// the axis toward d.
			along, across := fx*p.X+fy*p.Y, fy*p.X+fx*p.Y
			in = s.R0 <= along && along <= half && -s.BandH <= across && across <= s.BandH
		case GeometryLiteral:
			// Within Radius of every point of C0: the farthest point of C0
			// from p is R0 beyond the centre, so d(p, 0) + R0 ≤ Radius.
			in = inTile && math.Hypot(p.X, p.Y)+s.R0 <= s.Radius
		}
		if in {
			return URelay(d)
		}
	}
	return UNone
}

// TestClassifyMatchesDefinition checks the compiled classifier against
// classifyRef on a dense grid over the tile and its margin, and on the exact
// boundaries of every region (with both floating-point neighbours): disk
// rims, band edges and corners, band overlaps and tile corners.
func TestClassifyMatchesDefinition(t *testing.T) {
	literal3 := PaperUDGSpec()
	literal3.R0 = 0.3 // d(p, 0) ∈ (0.3, 0.7]: a non-empty literal region
	relaxed3 := UDGSpec{Mode: GeometryRelaxed, Side: 1.5, R0: 0.25, BandH: 0.3, Radius: 1}
	for _, tc := range []struct {
		name string
		spec UDGSpec
		want []URegion // regions the probes must reach (at least)
	}{
		// Empty in exact arithmetic, but one ulp beyond C0's rim d(p, 0) + R0
		// rounds to Radius, so the nudged rim probes classify as Right in
		// both; TestLiteralRelayRegionsAreEmpty pins the emptiness off the rim.
		{"literal R0=0.5", PaperUDGSpec(), []URegion{UC0, UNone}},
		{"literal R0=0.3", literal3, []URegion{UC0, URelayRight, UNone}},
		{"repaired", DefaultUDGSpec(), []URegion{UC0, URelayRight, URelayLeft, URelayTop, URelayBottom, UNone}},
		{"relaxed BandH=0.5", RelaxedUDGSpec(), []URegion{UC0, URelayRight, URelayLeft, URelayTop, URelayBottom, UNone}},
		{"relaxed BandH=0.3", relaxed3, []URegion{UC0, URelayRight, URelayLeft, URelayTop, URelayBottom, UNone}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.spec
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			g := s.Compile()
			half := s.Side / 2
			var probes []geom.Point
			const n = 241
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					probes = append(probes, geom.Pt(
						-1.1*half+2.2*half*float64(i)/(n-1),
						-1.1*half+2.2*half*float64(j)/(n-1)))
				}
			}
			// Exact boundary coordinates, in the first quadrant toward Right;
			// every sign and axis swap of each is probed below.
			edges := [][2]float64{
				{s.R0, 0}, {half, 0}, {half, half}, {0, half},
				{s.Xe + s.Re, 0}, {s.Xe - s.Re, 0}, {s.Xe, s.Re},
				{s.R0, s.BandH}, {half, s.BandH}, {s.BandH, s.BandH}, {s.BandH, s.R0},
				{half, s.Radius - s.R0}, {s.Radius - s.R0, 0},
				{(s.Radius - s.R0) * 0.6, (s.Radius - s.R0) * 0.8},
			}
			for _, e := range edges {
				for _, x := range nudge(e[0]) {
					for _, y := range nudge(e[1]) {
						probes = append(probes,
							geom.Pt(x, y), geom.Pt(-x, y), geom.Pt(x, -y), geom.Pt(-x, -y),
							geom.Pt(y, x), geom.Pt(-y, x), geom.Pt(y, -x), geom.Pt(-y, -x))
					}
				}
			}
			seen := map[URegion]bool{}
			for _, p := range probes {
				want := classifyRef(s, p)
				if got := g.Classify(p); got != want {
					t.Fatalf("Classify(%v) = %v, definition gives %v", p, got, want)
				}
				seen[want] = true
			}
			for _, r := range tc.want {
				if !seen[r] {
					t.Errorf("no probe reached region %v", r)
				}
			}
		})
	}
}

// nudge returns v and its two floating-point neighbours.
func nudge(v float64) []float64 {
	return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
}

// TestLiteralRelayRegionsAreEmpty pins down the paper's geometric defect
// (DESIGN.md §2): with C0 of radius 1/2 and unit disks, the §2.1 relay
// regions are empty.
func TestLiteralRelayRegionsAreEmpty(t *testing.T) {
	s := PaperUDGSpec()
	geo := s.Compile()
	g := rng.New(2)
	for i := 0; i < 80000; i++ {
		p := geom.Pt(g.Float64()*s.Side-s.Side/2, g.Float64()*s.Side-s.Side/2)
		if r := geo.Classify(p); r != UC0 && r != UNone {
			t.Fatalf("literal relay region %v contains %v — should be empty", r, p)
		}
	}
	// Consequently no tile can ever be good.
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Pt(g.Float64()*s.Side-s.Side/2, g.Float64()*s.Side-s.Side/2)
	}
	if geo.TileGood(pts) {
		t.Error("literal-geometry tile reported good")
	}
}

// TestRepairedReachability verifies Claim 2.1's per-hop guarantee for the
// repaired geometry: any representative can reach any same-tile relay, and
// any relay can reach the facing relay of the neighboring tile, within the
// connection radius.
func TestRepairedReachability(t *testing.T) {
	s := DefaultUDGSpec()
	geo := s.Compile()
	g := rng.New(3)
	// sampleIn draws a uniform point of the tile centred at shift (in this
	// tile's local coordinates) that the classifier puts in region r.
	sampleIn := func(r URegion, shift geom.Point) geom.Point {
		for {
			p := geom.Pt(g.Float64()*s.Side-s.Side/2, g.Float64()*s.Side-s.Side/2)
			if geo.Classify(p) == r {
				return p.Add(shift)
			}
		}
	}
	for _, d := range Directions {
		dx, dy := d.Vec()
		shift := geom.Pt(float64(dx)*s.Side, float64(dy)*s.Side)
		for i := 0; i < 2000; i++ {
			rep := sampleIn(UC0, geom.Point{})
			rel := sampleIn(URelay(d), geom.Point{})
			// The facing relay region of the neighbor tile: p with
			// Classify(p − shift) = URelay(d.Opposite()).
			far := sampleIn(URelay(d.Opposite()), shift)
			if rep.Dist(rel) > s.Radius+1e-9 {
				t.Fatalf("dir %v: rep %v cannot reach relay %v (d = %v)", d, rep, rel, rep.Dist(rel))
			}
			if rel.Dist(far) > s.Radius+1e-9 {
				t.Fatalf("dir %v: relay %v cannot reach facing relay %v (d = %v)", d, rel, far, rel.Dist(far))
			}
		}
	}
}

func TestUDGClassify(t *testing.T) {
	g := DefaultUDGSpec().Compile()
	if r := g.Classify(geom.Pt(0, 0)); r != UC0 {
		t.Errorf("center = %v", r)
	}
	if r := g.Classify(geom.Pt(0.5, 0)); r != URelayRight {
		t.Errorf("right relay center = %v", r)
	}
	if r := g.Classify(geom.Pt(-0.5, 0)); r != URelayLeft {
		t.Errorf("left relay center = %v", r)
	}
	if r := g.Classify(geom.Pt(0, 0.5)); r != URelayTop {
		t.Errorf("top relay center = %v", r)
	}
	if r := g.Classify(geom.Pt(0, -0.5)); r != URelayBottom {
		t.Errorf("bottom relay center = %v", r)
	}
	if r := g.Classify(geom.Pt(0.7, 0.7)); r != UNone {
		t.Errorf("corner = %v", r)
	}
	if r := g.Classify(geom.Pt(0.3, 0.3)); r != UNone {
		t.Errorf("gap point = %v", r)
	}
}

func TestUDGTileGood(t *testing.T) {
	g := DefaultUDGSpec().Compile()
	full := []geom.Point{
		{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: -0.5, Y: 0}, {X: 0, Y: 0.5}, {X: 0, Y: -0.5},
	}
	if !g.TileGood(full) {
		t.Error("fully-occupied tile not good")
	}
	if g.TileGood(full[:4]) {
		t.Error("tile missing bottom relay reported good")
	}
	if g.TileGood(nil) {
		t.Error("empty tile reported good")
	}
	// Duplicate occupancy doesn't help.
	if g.TileGood([]geom.Point{{X: 0, Y: 0}, {X: 0.01, Y: 0}, {X: 0.5, Y: 0}}) {
		t.Error("tile with only C0+right reported good")
	}
}

func TestUDGGoodProbabilityFormulaVsMonteCarlo(t *testing.T) {
	s := DefaultUDGSpec()
	g := rng.New(4)
	for _, lambda := range []float64{5, 12} {
		want := s.GoodProbability(lambda)
		got := MonteCarloGoodProbability(s.Side, lambda, s.Compile().TileGood, 6000, g)
		if math.Abs(got.P-want) > 0.025 {
			t.Errorf("λ=%v: MC %v vs analytic %v", lambda, got.P, want)
		}
	}
	if !math.IsNaN(PaperUDGSpec().GoodProbability(2)) {
		t.Error("literal-mode analytic probability should be NaN")
	}
}

func TestUDGGoodProbabilityMonotone(t *testing.T) {
	s := DefaultUDGSpec()
	prev := -1.0
	for lambda := 0.5; lambda <= 30; lambda += 0.5 {
		p := s.GoodProbability(lambda)
		if p < prev {
			t.Fatalf("good probability not monotone at λ=%v", lambda)
		}
		prev = p
	}
}

func TestLambdaS(t *testing.T) {
	s := DefaultUDGSpec()
	const pc = 0.592746
	ls := s.LambdaS(pc)
	// At λs the probability equals pc.
	if math.Abs(s.GoodProbability(ls)-pc) > 1e-6 {
		t.Errorf("P(good)(λs) = %v want %v", s.GoodProbability(ls), pc)
	}
	// Expected ballpark from the analytic formula: (1−e^{−λπ/16})⁵ = pc
	// → λ = −16·ln(1−pc^{1/5})/π ≈ 11.7.
	want := -16 * math.Log(1-math.Pow(pc, 0.2)) / math.Pi
	if math.Abs(ls-want) > 0.01 {
		t.Errorf("λs = %v want %v", ls, want)
	}
	if !math.IsNaN(PaperUDGSpec().LambdaS(pc)) {
		t.Error("literal-mode λs should be NaN")
	}
}

func TestRelaxedRegions(t *testing.T) {
	g := RelaxedUDGSpec().Compile()
	// Band between C0 and right edge.
	if r := g.Classify(geom.Pt(0.6, 0)); r != URelayRight {
		t.Errorf("band point = %v", r)
	}
	// Inside C0 wins.
	if r := g.Classify(geom.Pt(0.45, 0)); r != UC0 {
		t.Errorf("C0 point = %v", r)
	}
	// (0.66, 0.62) has |y| > BandH for the right band and |x| > BandH for
	// the top band, so it is outside everything.
	if r := g.Classify(geom.Pt(0.66, 0.62)); r != UNone {
		t.Errorf("corner point = %v", r)
	}
	// The right and top bands meet at (BandH, R0) = (0.5, 0.5); Directions
	// order gives it to the right band.
	if r := g.Classify(geom.Pt(0.5, 0.5)); r != URelayRight {
		t.Errorf("band overlap point = %v", r)
	}
}

func TestAssignTilesAndLocalPoints(t *testing.T) {
	m := NewMap(geom.Box(6, 6), 1.5)
	pts := []geom.Point{
		{X: 0.1, Y: 0.1},  // tile (0,0)
		{X: 1.0, Y: 0.2},  // tile (0,0)
		{X: 2.0, Y: 0.5},  // tile (1,0)
		{X: 5.9, Y: 5.9},  // tile (3,3)
		{X: -0.5, Y: 0.5}, // outside window
	}
	groups := AssignTiles(m, pts)
	if len(groups[Coord{0, 0}]) != 2 {
		t.Errorf("tile (0,0) group = %v", groups[Coord{0, 0}])
	}
	if len(groups[Coord{1, 0}]) != 1 || len(groups[Coord{3, 3}]) != 1 {
		t.Error("tile groups wrong")
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 4 {
		t.Errorf("total grouped = %d want 4 (outside point dropped)", total)
	}
	loc := LocalPoints(m, Coord{0, 0}, pts, groups[Coord{0, 0}], nil)
	if len(loc) != 2 {
		t.Fatalf("local points = %v", loc)
	}
	// Tile (0,0) center is (0.75, 0.75).
	if loc[0] != geom.Pt(0.1-0.75, 0.1-0.75) {
		t.Errorf("local[0] = %v", loc[0])
	}
	for _, l := range loc {
		if math.Abs(l.X) > 0.75 || math.Abs(l.Y) > 0.75 {
			t.Errorf("local point outside tile: %v", l)
		}
	}
}
