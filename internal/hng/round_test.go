package hng

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/rng"
)

// roundFixture builds a small multi-level HNG and returns a constructor for
// fresh maintainers over it.
func roundFixture(t testing.TB) (spec Spec, box geom.Rect, fresh func() *Kinetic) {
	t.Helper()
	spec = Spec{P: 0.3, MaxChildren: 2}
	box = geom.Box(12, 12)
	pts := deployment(t, 12, 1.5, 41)
	h, err := Build(pts, spec, rng.Sub(41, 1))
	if err != nil {
		t.Fatal(err)
	}
	return spec, box, func() *Kinetic { return NewKinetic(h, box) }
}

// applySequential applies a round's events one at a time through Remove
// and Move, with Round's documented semantics: deaths first, then the moves
// of nodes still alive, in order.
func applySequential(k *Kinetic, dead []int32, moves []mobility.Move) {
	for _, u := range dead {
		k.Remove(u)
	}
	for _, mv := range moves {
		if k.AliveMask()[mv.Node] {
			k.Move(mv.Node, mv.To)
		}
	}
}

// topLevelNodes returns the alive nodes of k's current top level.
func topLevelNodes(k *Kinetic) []int32 {
	var out []int32
	for u, l := range k.Levels() {
		if l == k.top && k.AliveMask()[u] {
			out = append(out, int32(u))
		}
	}
	return out
}

// TestRoundCases pins Round's edge cases. Every case must leave the graph
// equal to Rebuild and to the same events applied one at a time, at
// GOMAXPROCS 1 and 8.
func TestRoundCases(t *testing.T) {
	spec, _, fresh := roundFixture(t)
	cases := []struct {
		name  string
		round func(k *Kinetic) ([]int32, []mobility.Move)
		check func(t *testing.T, k *Kinetic, before KineticStats, moved int)
	}{
		{
			name:  "empty",
			round: func(*Kinetic) ([]int32, []mobility.Move) { return nil, nil },
			check: func(t *testing.T, k *Kinetic, before KineticStats, moved int) {
				if moved != 0 || k.Stats() != before {
					t.Fatalf("empty round moved %d, stats %+v -> %+v", moved, before, k.Stats())
				}
			},
		},
		{
			name: "duplicate deaths",
			round: func(*Kinetic) ([]int32, []mobility.Move) {
				return []int32{3, 3, 9, 3}, nil
			},
			check: func(t *testing.T, k *Kinetic, _ KineticStats, moved int) {
				if moved != 0 || k.AliveMask()[3] || k.AliveMask()[9] {
					t.Fatalf("moved %d, alive[3]=%v alive[9]=%v", moved, k.AliveMask()[3], k.AliveMask()[9])
				}
			},
		},
		{
			name: "dies and moves",
			round: func(k *Kinetic) ([]int32, []mobility.Move) {
				return []int32{5}, []mobility.Move{
					{Node: 5, To: geom.Pt(6, 6)}, {Node: 6, To: geom.Pt(1, 2)}}
			},
			check: func(t *testing.T, k *Kinetic, _ KineticStats, moved int) {
				if moved != 1 || k.Positions()[5] == geom.Pt(6, 6) || k.Positions()[6] != geom.Pt(1, 2) {
					t.Fatalf("moved %d, pos[5]=%v pos[6]=%v", moved, k.Positions()[5], k.Positions()[6])
				}
			},
		},
		{
			name: "whole top level dies",
			round: func(k *Kinetic) ([]int32, []mobility.Move) {
				return topLevelNodes(k), []mobility.Move{{Node: 0, To: geom.Pt(11, 0.5)}}
			},
			check: func(t *testing.T, k *Kinetic, before KineticStats, _ int) {
				if k.top >= k.topAll {
					t.Fatalf("top stayed at %d after its level died", k.top)
				}
				if got := k.Stats().MSTRecomputes - before.MSTRecomputes; got != 1 {
					t.Fatalf("MST rebuilt %d times, want 1", got)
				}
			},
		},
		{
			name: "node listed twice",
			round: func(*Kinetic) ([]int32, []mobility.Move) {
				return nil, []mobility.Move{
					{Node: 7, To: geom.Pt(2, 9)}, {Node: 8, To: geom.Pt(4, 4)}, {Node: 7, To: geom.Pt(10, 3)}}
			},
			check: func(t *testing.T, k *Kinetic, before KineticStats, moved int) {
				// The last listed position wins, every entry counts, and the
				// twice-listed node is relinked once: the round costs what the
				// same round without the first entry costs.
				if moved != 3 || k.Positions()[7] != geom.Pt(10, 3) {
					t.Fatalf("moved %d, pos[7]=%v", moved, k.Positions()[7])
				}
				once := fresh()
				once.Round(nil, []mobility.Move{{Node: 8, To: geom.Pt(4, 4)}, {Node: 7, To: geom.Pt(10, 3)}})
				if got, want := k.Stats().LinkRecomputes-before.LinkRecomputes, once.Stats().LinkRecomputes; got != want {
					t.Fatalf("round relinked %d nodes, want %d", got, want)
				}
			},
		},
	}
	for _, gmp := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(gmp)
		for _, tc := range cases {
			k, seq := fresh(), fresh()
			dead, moves := tc.round(k)
			before := k.Stats()
			moved := k.Round(dead, moves)
			applySequential(seq, dead, moves)
			checkEquivalence(t, k, spec, gmp)
			if diff := graph.FirstDiff(k.Materialize(), seq.Materialize()); diff != "" {
				t.Fatalf("GOMAXPROCS %d, %s: round != sequential: %s", gmp, tc.name, diff)
			}
			tc.check(t, k, before, moved)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRoundMatchesSequential drives random multi-event rounds through one
// maintainer and the same events one at a time through a twin: both must
// equal Rebuild after every round.
func TestRoundMatchesSequential(t *testing.T) {
	spec, box, fresh := roundFixture(t)
	k, seq := fresh(), fresh()
	n := len(k.Positions())
	gen := rng.Sub(41, 2)
	for step := 0; step < 20; step++ {
		var dead []int32
		var moves []mobility.Move
		for i := 0; i < 12; i++ {
			u := int32(gen.IntN(n))
			if gen.Float64() < 0.1 {
				dead = append(dead, u)
				continue
			}
			p := k.Positions()[u]
			p.X += (gen.Float64() - 0.5) * 2
			p.Y += (gen.Float64() - 0.5) * 2
			moves = append(moves, mobility.Move{Node: u, To: box.Clamp(p)})
		}
		k.Round(dead, moves)
		applySequential(seq, dead, moves)
		checkEquivalence(t, k, spec, step)
		if diff := graph.FirstDiff(k.Materialize(), seq.Materialize()); diff != "" {
			t.Fatalf("step %d: round != sequential: %s", step, diff)
		}
	}
}

// TestRoundWarmAllocs: once a maintainer has seen a round, repeating it
// (every node stepping back and forth between two positions) allocates
// nothing — links, groups and overlay segments reuse their storage.
func TestRoundWarmAllocs(t *testing.T) {
	_, box, fresh := roundFixture(t)
	k := fresh()
	var there, back []mobility.Move
	for u, p := range k.Positions() {
		q := box.Clamp(geom.Pt(p.X+0.3, p.Y-0.2))
		there = append(there, mobility.Move{Node: int32(u), To: q})
		back = append(back, mobility.Move{Node: int32(u), To: p})
	}
	for i := 0; i < 4; i++ {
		k.Round(nil, there)
		k.Round(nil, back)
	}
	if a := testing.AllocsPerRun(20, func() {
		k.Round(nil, there)
		k.Round(nil, back)
	}); a != 0 {
		t.Fatalf("warm round allocates %.1f per pair, want 0", a)
	}
}

// recomputeGroupRetractAll is the reference form of recomputeGroup: retract
// every edge the group held, then emit every edge it derives now, letting
// the refcounts sort out what stayed.
func (k *Kinetic) recomputeGroupRetractAll(key uint64, g *kGroup) {
	k.stats.GroupRecomputes++
	for _, e := range g.edges {
		u, v := graph.Unpack(e)
		k.retract(u, v)
	}
	g.edges = append(g.edges[:0], k.groupEdges(key, g)...)
	for _, e := range g.edges {
		u, v := graph.Unpack(e)
		k.emit(u, v)
	}
}

// TestGroupDiffMatchesRetractAll holds recomputeGroup's edge diff to the
// retract-all/emit-all reference over long mixed Move/Remove/Round
// sequences on the multi-level fixture (MaxChildren 2, so overflow chains
// share edges across groups): after every operation the KineticStats and
// the materialized graph are identical.
func TestGroupDiffMatchesRetractAll(t *testing.T) {
	_, box, fresh := roundFixture(t)
	for _, seed := range []rng.Seed{43, 44} {
		k, ref := fresh(), fresh()
		ref.regroup = ref.recomputeGroupRetractAll
		n := len(k.Positions())
		gen := rng.Sub(seed, 3)
		same := func(step int, op string) {
			t.Helper()
			if k.Stats() != ref.Stats() {
				t.Fatalf("seed %d step %d (%s): stats %+v, reference %+v", seed, step, op, k.Stats(), ref.Stats())
			}
			if diff := graph.FirstDiff(k.Materialize(), ref.Materialize()); diff != "" {
				t.Fatalf("seed %d step %d (%s): graph differs from the reference: %s", seed, step, op, diff)
			}
		}
		for step := 0; step < 400; step++ {
			u := int32(gen.IntN(n))
			p := k.Positions()[u]
			p.X += (gen.Float64() - 0.5) * 1.5
			p.Y += (gen.Float64() - 0.5) * 1.5
			p = box.Clamp(p)
			switch r := gen.Float64(); {
			case r < 0.05:
				k.Remove(u)
				ref.Remove(u)
				same(step, "remove")
			case r < 0.25:
				var moves []mobility.Move
				for i := 0; i < 6; i++ {
					v := int32(gen.IntN(n))
					q := box.Clamp(geom.Pt(k.Positions()[v].X+gen.Float64()-0.5, k.Positions()[v].Y+gen.Float64()-0.5))
					moves = append(moves, mobility.Move{Node: v, To: q})
				}
				dead := []int32{int32(gen.IntN(n))}
				k.Round(dead, moves)
				ref.Round(dead, moves)
				same(step, "round")
			default:
				if !k.AliveMask()[u] {
					continue
				}
				k.Move(u, p)
				ref.Move(u, p)
				same(step, "move")
			}
		}
		if k.Stats().EdgeChanges == 0 || k.Stats().GroupRecomputes == 0 {
			t.Fatalf("seed %d: no group work exercised: %+v", seed, k.Stats())
		}
	}
}
