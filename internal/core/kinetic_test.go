package core

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rng"
	"repro/internal/tiling"
)

// checkKineticEquivalence asserts the equivalence gate: the kinetic
// maintainer's materialized graph equals a from-scratch BuildUDG at the
// same positions and alive mask, edge-for-edge.
func checkKineticEquivalence(t *testing.T, k *Kinetic, spec tiling.UDGSpec, step int) {
	t.Helper()
	ref, err := BuildUDG(k.Positions(), k.Box(), spec, Options{SkipBase: true, Alive: k.AliveMask()})
	if err != nil {
		t.Fatalf("step %d: BuildUDG: %v", step, err)
	}
	got := k.Materialize()
	if diff := graph.FirstDiff(got, ref.Graph); diff != "" {
		t.Fatalf("step %d: incremental != rebuild: %s", step, diff)
	}
}

// runKineticEquivalence drives random moves and deaths through a Kinetic
// UDG-SENS maintainer over a network built with spec and opt, and checks
// the gate after every batch.
func runKineticEquivalence(t *testing.T, seed rng.Seed, lambda, side float64, spec tiling.UDGSpec, opt Options) {
	t.Helper()
	box := geom.Box(side, side)
	pts := pointprocess.Poisson(box, lambda, rng.New(seed))
	n, err := BuildUDG(pts, box, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n.Stats.GoodTiles == 0 {
		t.Fatal("no good tiles — test deployment too sparse to exercise repairs")
	}
	k, err := NewKinetic(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkKineticEquivalence(t, k, spec, -1)

	gen := rng.Sub(seed, 7)
	np := len(pts)
	for step := 0; step < 20; step++ {
		for op := 0; op < 6; op++ {
			u := int32(gen.IntN(np))
			if !k.AliveMask()[u] {
				continue
			}
			switch {
			case gen.Float64() < 0.1:
				k.Remove(u)
			case gen.Float64() < 0.15:
				// Long jump anywhere in the box.
				k.Move(u, geom.Point{X: gen.Float64() * side, Y: gen.Float64() * side})
			default:
				// Displacement on the tile scale: crosses boundaries and
				// region borders but stays local.
				p := k.Positions()[u]
				p.X += (gen.Float64() - 0.5) * 1.2 * spec.Side
				p.Y += (gen.Float64() - 0.5) * 1.2 * spec.Side
				k.Move(u, box.Clamp(p))
			}
		}
		checkKineticEquivalence(t, k, spec, step)
	}
	if k.Stats().TileRecomputes == 0 {
		t.Fatal("no tile recomputes recorded — repairs are not happening")
	}
}

// TestKineticSENSEquivalenceUnderMotion runs the gate in the repaired
// geometry and in the relaxed one, whose handshakes drop out-of-range
// edges, with and without a base graph at the start.
func TestKineticSENSEquivalenceUnderMotion(t *testing.T) {
	for _, c := range []struct {
		name string
		spec tiling.UDGSpec
		opt  Options
	}{
		{"repaired", tiling.DefaultUDGSpec(), Options{SkipBase: true}},
		{"relaxed-skipbase", tiling.RelaxedUDGSpec(), Options{SkipBase: true}},
		{"relaxed-base", tiling.RelaxedUDGSpec(), Options{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, gmp := range []int{1, 8} {
				prev := runtime.GOMAXPROCS(gmp)
				runKineticEquivalence(t, 41, 16, 12, c.spec, c.opt)
				runtime.GOMAXPROCS(prev)
			}
		})
	}
}

func TestKineticSENSEquivalenceSparse(t *testing.T) {
	// Subcritical density: most tiles are bad, so repairs constantly flip
	// tiles between good and bad and contributions appear and vanish.
	runKineticEquivalence(t, 43, 6, 12, tiling.DefaultUDGSpec(), Options{SkipBase: true})
}

func TestKineticSENSMassDeathReachesEmpty(t *testing.T) {
	box := geom.Box(9, 9)
	pts := pointprocess.Poisson(box, 14, rng.New(5))
	spec := tiling.DefaultUDGSpec()
	opt := Options{SkipBase: true}
	n, err := BuildUDG(pts, box, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKinetic(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	order := rng.Sub(5, 2).Perm(len(pts))
	for i, u := range order {
		k.Remove(int32(u))
		if i%19 == 0 || i == len(order)-1 {
			checkKineticEquivalence(t, k, spec, i)
		}
	}
	if got := k.Materialize(); got.EdgeCount != 0 {
		t.Fatalf("graph not empty after all deaths: %d edges", got.EdgeCount)
	}
}

func TestKineticSENSMaskedStart(t *testing.T) {
	// Starting from a network built with a partial alive mask must stay on
	// the gate as more nodes die and survivors move.
	box := geom.Box(10, 10)
	pts := pointprocess.Poisson(box, 16, rng.New(9))
	alive := make([]bool, len(pts))
	gen := rng.Sub(9, 1)
	for i := range alive {
		alive[i] = gen.Float64() < 0.8
	}
	spec := tiling.DefaultUDGSpec()
	opt := Options{SkipBase: true, Alive: alive}
	n, err := BuildUDG(pts, box, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKinetic(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkKineticEquivalence(t, k, spec, -1)
	for step := 0; step < 40; step++ {
		u := int32(gen.IntN(len(pts)))
		if !k.AliveMask()[u] {
			continue
		}
		if step%5 == 4 {
			k.Remove(u)
		} else {
			p := k.Positions()[u]
			p.X += (gen.Float64() - 0.5) * 2
			p.Y += (gen.Float64() - 0.5) * 2
			k.Move(u, box.Clamp(p))
		}
		checkKineticEquivalence(t, k, spec, step)
	}
}

func TestKineticSENSStatsScaleWithRegion(t *testing.T) {
	// A single move touches at most two tiles (plus their Left/Bottom
	// neighbors' contributions) no matter how large the network is.
	box := geom.Box(24, 24)
	pts := pointprocess.Poisson(box, 16, rng.New(11))
	spec := tiling.DefaultUDGSpec()
	opt := Options{SkipBase: true}
	n, err := BuildUDG(pts, box, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKinetic(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.Sub(11, 3)
	const trials = 60
	k.ResetStats()
	for i := 0; i < trials; i++ {
		u := int32(gen.IntN(len(pts)))
		if !k.AliveMask()[u] {
			continue
		}
		p := k.Positions()[u]
		p.X += (gen.Float64() - 0.5) * spec.Side
		p.Y += (gen.Float64() - 0.5) * spec.Side
		k.Move(u, box.Clamp(p))
	}
	s := k.ResetStats()
	if perMove := float64(s.TileRecomputes) / trials; perMove > 2 {
		t.Fatalf("moves re-elect %.2f tiles on average — repair is not localized", perMove)
	}
	if n.Stats.Tiles < 100 {
		t.Fatalf("test network too small (%d tiles) to demonstrate locality", n.Stats.Tiles)
	}
}

// kineticFuzzBoundaries lists, for every tile of a 4×4 window of the default
// geometry (side 1.5), the points exactly on tile and region boundaries:
// the tile center, the C0/relay contact points, the relay disks' outer
// points on the tile edges, relay-disk rims and tile corners. All offsets
// are multiples of 1/4, so every coordinate is exact.
func kineticFuzzBoundaries() []geom.Point {
	offsets := []geom.Point{{X: 0, Y: 0}}
	for _, v := range [][2]float64{{0.25, 0}, {0.75, 0}, {0.5, 0.25}, {0.75, 0.75}} {
		for _, s := range [][2]float64{{1, 1}, {-1, 1}, {1, -1}, {-1, -1}} {
			offsets = append(offsets, geom.Point{X: s[0] * v[0], Y: s[1] * v[1]}, geom.Point{X: s[1] * v[1], Y: s[0] * v[0]})
		}
	}
	var out []geom.Point
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c := geom.Point{X: 1.5*float64(i) + 0.75, Y: 1.5*float64(j) + 0.75}
			for _, o := range offsets {
				out = append(out, c.Add(o))
			}
		}
	}
	return out
}

// FuzzKinetic drives fuzz-decoded Move/Remove sequences through a Kinetic
// maintainer over a small deployment that includes points exactly on tile
// and region boundaries, in a box whose right and top strips lie outside
// the mapped window. After every operation the materialized graph must
// equal BuildUDG's at the current positions and alive mask.
//
// Each operation takes five bytes: the kind (Remove, Move to a boundary
// point, Move to a quantized position anywhere in the box), two bytes of
// node index and two bytes of target.
func FuzzKinetic(f *testing.F) {
	box := geom.Box(6.5, 6.5)
	spec := tiling.DefaultUDGSpec()
	bounds := kineticFuzzBoundaries()
	pts := append(pointprocess.Poisson(box, 16, rng.New(61)), bounds...)
	opt := Options{SkipBase: true}
	n, err := BuildUDG(pts, box, spec, opt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{1, 0, 7, 0, 3, 2, 1, 200, 250, 9, 0, 3, 0, 0, 0})
	f.Add([]byte{2, 2, 0, 255, 255, 1, 2, 0, 17, 0, 0, 2, 0, 0, 0, 2, 2, 0, 128, 128})
	f.Fuzz(func(t *testing.T, ops []byte) {
		k, err := NewKinetic(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; len(ops) >= 5 && step < 64; step, ops = step+1, ops[5:] {
			u := int32(int(ops[1])<<8|int(ops[2])) % int32(len(pts))
			if !k.AliveMask()[u] {
				continue
			}
			switch ops[0] % 3 {
			case 0:
				k.Remove(u)
			case 1:
				k.Move(u, bounds[(int(ops[3])<<8|int(ops[4]))%len(bounds)])
			case 2:
				k.Move(u, geom.Point{X: float64(ops[3]) / 255 * box.Width(), Y: float64(ops[4]) / 255 * box.Height()})
			}
			checkKineticEquivalence(t, k, spec, step)
		}
	})
}
