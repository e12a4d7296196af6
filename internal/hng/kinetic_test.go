package hng

import (
	"cmp"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/pointprocess"
	"repro/internal/rng"
)

// checkEquivalence asserts the equivalence gate: the kinetic maintainer's
// materialized graph equals a from-scratch Rebuild at the same positions,
// levels and alive set, edge-for-edge.
func checkEquivalence(t *testing.T, k *Kinetic, spec Spec, step int) {
	t.Helper()
	ref, err := Rebuild(k.Positions(), k.Levels(), k.AliveMask(), spec)
	if err != nil {
		t.Fatalf("step %d: Rebuild: %v", step, err)
	}
	got := k.Materialize()
	if diff := graph.FirstDiff(got, ref.CSR); diff != "" {
		t.Fatalf("step %d: incremental != rebuild: %s", step, diff)
	}
}

// runKineticEquivalence drives random moves and deaths through a Kinetic
// and checks the gate after every batch.
func runKineticEquivalence(t *testing.T, spec Spec, seed rng.Seed) {
	t.Helper()
	box := geom.Box(20, 20)
	pts := deployment(t, 20, 2, seed)
	h, err := Build(pts, spec, rng.Sub(seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKinetic(h, box)
	checkEquivalence(t, k, spec, -1)

	gen := rng.Sub(seed, 2)
	n := len(pts)
	for step := 0; step < 25; step++ {
		for op := 0; op < 8; op++ {
			u := int32(gen.IntN(n))
			if !k.AliveMask()[u] {
				continue
			}
			if gen.Float64() < 0.12 {
				k.Remove(u)
				continue
			}
			// Mostly small displacements, occasionally a long jump.
			p := k.Positions()[u]
			if gen.Float64() < 0.2 {
				p = geom.Point{X: gen.Float64() * 20, Y: gen.Float64() * 20}
			} else {
				p.X += (gen.Float64() - 0.5) * 0.8
				p.Y += (gen.Float64() - 0.5) * 0.8
				p = box.Clamp(p)
			}
			k.Move(u, p)
		}
		checkEquivalence(t, k, spec, step)
	}
	if k.stats.LinkRecomputes == 0 {
		t.Fatal("no link recomputes recorded — repairs are not happening")
	}
}

func TestKineticEquivalenceUnderMotion(t *testing.T) {
	for _, gmp := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(gmp)
		runKineticEquivalence(t, DefaultSpec(), 31)
		runtime.GOMAXPROCS(prev)
	}
}

func TestKineticEquivalenceUnprunedAndFlat(t *testing.T) {
	// No pruning (unbounded groups) and a taller hierarchy both exercise
	// different group/MST paths.
	runKineticEquivalence(t, Spec{P: 0.3, MaxChildren: 0}, 7)
	runKineticEquivalence(t, Spec{P: 0.45, MaxChildren: 2}, 13)
}

func TestKineticMassDeathReachesEmpty(t *testing.T) {
	// Killing every node one by one must keep the gate at every prefix and
	// end at the empty graph (top chases the survivors down).
	box := geom.Box(12, 12)
	pts := deployment(t, 12, 1.5, 3)
	spec := DefaultSpec()
	h, err := Build(pts, spec, rng.Sub(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKinetic(h, box)
	order := rng.Sub(3, 2).Perm(len(pts))
	for i, u := range order {
		k.Remove(int32(u))
		if i%7 == 0 || i == len(order)-1 {
			checkEquivalence(t, k, spec, i)
		}
	}
	if got := k.Materialize(); got.EdgeCount != 0 {
		t.Fatalf("graph not empty after all deaths: %d edges", got.EdgeCount)
	}
}

func TestKineticCoincidentPoints(t *testing.T) {
	// Duplicate positions stress the (distance, index) tie-breaks: moves
	// landing exactly on occupied coordinates must still match the rebuild.
	box := geom.Box(4, 4)
	pts := []geom.Point{
		{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 3, Y: 3}, {X: 3, Y: 3},
		{X: 1, Y: 3}, {X: 3, Y: 1}, {X: 2, Y: 2}, {X: 2, Y: 2},
		{X: 1, Y: 1}, {X: 3, Y: 3}, {X: 0.5, Y: 0.5}, {X: 3.5, Y: 0.5},
	}
	spec := Spec{P: 0.4, MaxChildren: 2}
	h, err := Build(pts, spec, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKinetic(h, box)
	checkEquivalence(t, k, spec, -1)
	targets := []geom.Point{
		{X: 1, Y: 1}, {X: 3, Y: 3}, {X: 2, Y: 2}, {X: 1, Y: 3},
	}
	gen := rng.Sub(17, 5)
	for step := 0; step < 30; step++ {
		u := int32(gen.IntN(len(pts)))
		if !k.AliveMask()[u] {
			continue
		}
		if step%9 == 8 {
			k.Remove(u)
		} else {
			k.Move(u, targets[gen.IntN(len(targets))])
		}
		checkEquivalence(t, k, spec, step)
	}
}

func TestKineticStatsScaleWithRegion(t *testing.T) {
	// A small displacement must touch far fewer links than the node count —
	// the "repair cost ~ O(affected region), not O(n)" claim in its
	// cheapest testable form.
	box := geom.Box(30, 30)
	pts := deployment(t, 30, 4, 23)
	h, err := Build(pts, DefaultSpec(), rng.Sub(23, 1))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKinetic(h, box)
	n := len(pts)
	gen := rng.Sub(23, 2)
	const trials = 50
	k.ResetStats()
	for i := 0; i < trials; i++ {
		u := int32(gen.IntN(n))
		p := k.Positions()[u]
		p.X += (gen.Float64() - 0.5) * 0.2
		p.Y += (gen.Float64() - 0.5) * 0.2
		k.Move(u, box.Clamp(p))
	}
	s := k.ResetStats()
	perMove := float64(s.LinkRecomputes) / trials
	if perMove > float64(n)/10 {
		t.Fatalf("small moves relink %.1f nodes on average (n=%d) — repair is not localized", perMove, n)
	}
}

// BenchmarkHNGKineticMove times one waypoint Move on the drift workload
// (driftFixture) once the first 10 steps have warmed the maintainer; each
// op is the next move of the remaining steps, and a freshly warmed
// maintainer replaces one that has run out of moves, off the clock.
func BenchmarkHNGKineticMove(b *testing.B) {
	h, box, traj := driftFixture(b)
	const warmSteps = 10
	var moves []mobility.Move
	for _, step := range traj.Steps[warmSteps:] {
		moves = append(moves, step...)
	}
	warm := func() *Kinetic {
		k := NewKinetic(h, box)
		for _, step := range traj.Steps[:warmSteps] {
			for _, mv := range step {
				k.Move(mv.Node, mv.To)
			}
		}
		return k
	}
	k, at := warm(), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if at == len(moves) {
			b.StopTimer()
			k, at = warm(), 0
			b.StartTimer()
		}
		k.Move(moves[at].Node, moves[at].To)
		at++
	}
}

// checkCandidates holds collectCandidates to a brute-force scan for node u
// (alive or dead) leaving its position for q: level by level and position
// by position, every alive node the exact affected test admits, ordered as
// the level grid's Within scan finds them (cell, then index), each once.
func checkCandidates(t *testing.T, k *Kinetic, u int32, q geom.Point, step int) {
	t.Helper()
	l, positions := k.levels[u], []geom.Point{k.pts[u], q}
	k.collectCandidates(u, l, positions...)
	got := slices.Clone(k.candBuf)
	for _, y := range got {
		k.seen[y] = false
	}
	k.candBuf = k.candBuf[:0]

	var want []int32
	seen := make([]bool, len(k.pts))
	for j := int32(1); j <= l; j++ {
		grid := k.grids[j-1]
		for _, p := range positions {
			var hits []int32
			for y := range k.pts {
				y := int32(y)
				if k.alive[y] && k.levels[y] == j && y != u && !seen[y] && k.affected(y, u, p, l > j) {
					hits = append(hits, y)
				}
			}
			slices.SortFunc(hits, func(a, b int32) int {
				return cmp.Or(cmp.Compare(grid.CellOf(a), grid.CellOf(b)), cmp.Compare(a, b))
			})
			for _, y := range hits {
				seen[y] = true
			}
			want = append(want, hits...)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: candidates of %d moving to %v = %v, brute force %v", step, u, q, got, want)
	}
}

// FuzzHNGKinetic drives fuzz-decoded Move, Remove and Round sequences
// through an HNG maintainer over a small multi-level deployment that
// includes coincident points and points on the box boundary. After every
// operation the materialized graph must equal Rebuild at the current
// positions, levels and alive set, after every Round it must equal a twin
// maintainer that received the same events one at a time, and the
// candidates a move of the operation's nodes would collect must equal a
// brute-force scan (checkCandidates).
//
// Each operation takes five bytes: the kind, two bytes of node index and
// two bytes of target. Kinds 0–2 are a Remove, a Move to a special point (a
// box-boundary point or another node's current position) and a Move to a
// quantized position anywhere in the box, boundary included. Kind 3 opens
// a Round whose events are the next (target mod 8) operations, decoded as
// kinds 0–2.
func FuzzHNGKinetic(f *testing.F) {
	box := geom.Box(6, 6)
	spec := Spec{P: 0.35, MaxChildren: 2}
	pts := pointprocess.Poisson(box, 3, rng.New(67))
	bounds := []geom.Point{
		{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 0, Y: 6}, {X: 6, Y: 6},
		{X: 3, Y: 0}, {X: 0, Y: 3}, {X: 6, Y: 3}, {X: 3, Y: 6}, {X: 1.5, Y: 6},
	}
	pts = append(pts, bounds...)
	pts = append(pts, pts[0], pts[1], pts[2]) // coincident with live nodes
	h, err := Build(pts, spec, rng.New(68))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{1, 0, 7, 0, 3, 2, 1, 200, 250, 9, 0, 3, 0, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 4, 0, 0, 5, 0, 0, 1, 0, 5, 0, 1, 2, 0, 9, 255, 0, 1, 0, 9, 1, 7})
	f.Add([]byte{3, 0, 0, 0, 3, 1, 0, 2, 0, 8, 0, 0, 2, 0, 0, 2, 0, 2, 128, 128, 0, 0, 40, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		k, twin := NewKinetic(h, box), NewKinetic(h, box)
		decode := func(op []byte) (remove bool, u int32, p geom.Point) {
			u = int32(int(op[1])<<8|int(op[2])) % int32(len(pts))
			target := int(op[3])<<8 | int(op[4])
			switch op[0] % 3 {
			case 0:
				remove = true
			case 1:
				if target%2 == 0 {
					p = bounds[(target/2)%len(bounds)]
				} else {
					p = k.Positions()[(target/2)%len(pts)]
				}
			case 2:
				p = geom.Point{X: float64(op[3]) / 255 * box.Width(), Y: float64(op[4]) / 255 * box.Height()}
			}
			return remove, u, p
		}
		for step := 0; len(ops) >= 5 && step < 48; step++ {
			op := ops[:5]
			ops = ops[5:]
			if op[0]%4 != 3 {
				remove, u, p := decode(op)
				if !k.AliveMask()[u] {
					continue
				}
				if remove {
					k.Remove(u)
					twin.Remove(u)
				} else {
					k.Move(u, p)
					twin.Move(u, p)
				}
				checkEquivalence(t, k, spec, step)
				checkCandidates(t, k, u, bounds[step%len(bounds)], step)
				continue
			}
			var dead []int32
			var moves []mobility.Move
			for m := int(op[4]) % 8; m > 0 && len(ops) >= 5; m-- {
				remove, u, p := decode(ops[:5])
				ops = ops[5:]
				if remove {
					dead = append(dead, u)
				} else {
					moves = append(moves, mobility.Move{Node: u, To: p})
				}
			}
			k.Round(dead, moves)
			applySequential(twin, dead, moves)
			checkEquivalence(t, k, spec, step)
			if diff := graph.FirstDiff(k.Materialize(), twin.Materialize()); diff != "" {
				t.Fatalf("step %d: round != one at a time: %s", step, diff)
			}
			for _, u := range dead {
				checkCandidates(t, k, u, bounds[step%len(bounds)], step)
			}
			for _, mv := range moves {
				checkCandidates(t, k, mv.Node, k.pts[(int(mv.Node)+step)%len(pts)], step)
			}
		}
	})
}
