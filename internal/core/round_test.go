package core

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/pointprocess"
	"repro/internal/rng"
	"repro/internal/tiling"
)

// roundFixture builds a λ=16 UDG-SENS network on a 12×12 box and returns a
// constructor for fresh maintainers over it.
func roundFixture(t testing.TB) (*Network, geom.Rect, tiling.UDGSpec, func() *Kinetic) {
	t.Helper()
	box := geom.Box(12, 12)
	pts := pointprocess.Poisson(box, 16, rng.New(47))
	spec := tiling.DefaultUDGSpec()
	opt := Options{SkipBase: true}
	n, err := BuildUDG(pts, box, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	return n, box, spec, func() *Kinetic {
		k, err := NewKinetic(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
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

// TestRoundCases pins Round's edge cases. Every case must leave the graph
// equal to BuildUDG and to the same events applied one at a time, at
// GOMAXPROCS 1 and 8.
func TestRoundCases(t *testing.T) {
	n, _, spec, fresh := roundFixture(t)
	goodTile := -1
	for i, tn := range n.Tiles {
		if tn.Good {
			goodTile = i
			break
		}
	}
	if goodTile < 0 {
		t.Fatal("fixture has no good tile")
	}
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
			round: func(*Kinetic) ([]int32, []mobility.Move) {
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
			name: "whole good tile dies",
			round: func(k *Kinetic) ([]int32, []mobility.Move) {
				return append([]int32(nil), k.members[goodTile]...), nil
			},
			check: func(t *testing.T, k *Kinetic, before KineticStats, _ int) {
				if k.tiles[goodTile].Good {
					t.Fatal("tile stayed good after all its members died")
				}
				if got := k.Stats().TileRecomputes - before.TileRecomputes; got != 1 {
					t.Fatalf("round re-elected %d tiles, want 1", got)
				}
			},
		},
		{
			name: "node listed twice",
			round: func(*Kinetic) ([]int32, []mobility.Move) {
				return nil, []mobility.Move{
					{Node: 7, To: geom.Pt(2, 9)}, {Node: 8, To: geom.Pt(4, 4)}, {Node: 7, To: geom.Pt(10, 3)}}
			},
			check: func(t *testing.T, k *Kinetic, _ KineticStats, moved int) {
				// The last listed position wins and every entry counts.
				if moved != 3 || k.Positions()[7] != geom.Pt(10, 3) {
					t.Fatalf("moved %d, pos[7]=%v", moved, k.Positions()[7])
				}
				once := fresh()
				once.Round(nil, []mobility.Move{{Node: 8, To: geom.Pt(4, 4)}, {Node: 7, To: geom.Pt(10, 3)}})
				if diff := graph.FirstDiff(k.Materialize(), once.Materialize()); diff != "" {
					t.Fatalf("twice-listed round != last-entry round: %s", diff)
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
			checkKineticEquivalence(t, k, spec, gmp)
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
// equal BuildUDG after every round.
func TestRoundMatchesSequential(t *testing.T) {
	n, box, spec, fresh := roundFixture(t)
	k, seq := fresh(), fresh()
	gen := rng.Sub(47, 2)
	for step := 0; step < 20; step++ {
		var dead []int32
		var moves []mobility.Move
		for i := 0; i < 40; i++ {
			u := int32(gen.IntN(len(n.Pts)))
			if gen.Float64() < 0.1 {
				dead = append(dead, u)
				continue
			}
			p := k.Positions()[u]
			p.X += (gen.Float64() - 0.5) * 1.2 * spec.Side
			p.Y += (gen.Float64() - 0.5) * 1.2 * spec.Side
			moves = append(moves, mobility.Move{Node: u, To: box.Clamp(p)})
		}
		k.Round(dead, moves)
		applySequential(seq, dead, moves)
		checkKineticEquivalence(t, k, spec, step)
		if diff := graph.FirstDiff(k.Materialize(), seq.Materialize()); diff != "" {
			t.Fatalf("step %d: round != sequential: %s", step, diff)
		}
	}
}

// TestRoundWarmAllocs: once a maintainer has seen a round, repeating it
// (every node stepping back and forth between two positions) allocates
// nothing — member lists, contributions and overlay segments reuse their
// storage.
func TestRoundWarmAllocs(t *testing.T) {
	_, box, _, fresh := roundFixture(t)
	k := fresh()
	var there, back []mobility.Move
	for u, p := range k.Positions() {
		q := box.Clamp(geom.Pt(p.X+0.4, p.Y-0.3))
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
