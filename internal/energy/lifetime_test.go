package energy

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
)

// lineInstance builds the 0–1–2–3 unit-spaced path with node 0 the sink:
// node 1 relays everything, so it must die first.
func lineInstance() (*graph.CSR, []geom.Point) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)}
	return b.Build(), pos
}

func lineSpec() Spec {
	s := DefaultSpec()
	s.Capacity = 100
	s.Rate = 1 // deterministic traffic
	s.MaxRounds = 500
	return s
}

func TestLifetimeRelayDiesFirst(t *testing.T) {
	g, pos := lineInstance()
	rep, err := SimulateLifetime(g, pos, nil, []int32{0}, lineSpec(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Per round: node 1 pays tx(1 hop) + rx of two transit packets = 2 + 2·2·1
	// = 6 plus idle; nodes 2 and 3 pay less. First death must be node 1's,
	// at ~100/6.05 ≈ 16 rounds, and it disconnects 2 and 3 from the sink.
	if rep.FirstDeath < 10 || rep.FirstDeath > 20 {
		t.Errorf("FirstDeath = %d, want ≈16", rep.FirstDeath)
	}
	if rep.CoverageLifetime != rep.FirstDeath {
		// Node 1's death drops the served fraction to 0 < 1/2.
		t.Errorf("CoverageLifetime = %d, want %d", rep.CoverageLifetime, rep.FirstDeath)
	}
	if rep.Rounds != len(rep.Alive) || rep.Rounds != len(rep.Served) || rep.Rounds != len(rep.Largest) {
		t.Errorf("curve lengths %d/%d/%d disagree with Rounds %d",
			len(rep.Alive), len(rep.Served), len(rep.Largest), rep.Rounds)
	}
	if rep.Attempted != rep.Delivered+rep.Dropped {
		t.Errorf("attempted %d != delivered %d + dropped %d",
			rep.Attempted, rep.Delivered, rep.Dropped)
	}
	// After node 1 dies the simulation is routing-dead and must stop.
	if last := rep.Served[rep.Rounds-1]; last != 0 && rep.Rounds >= lineSpec().MaxRounds {
		t.Errorf("simulation did not stop after disconnection (served %v at round %d)",
			last, rep.Rounds)
	}
	if rep.AliveAtEnd() >= 1 {
		t.Errorf("AliveAtEnd = %v, want < 1", rep.AliveAtEnd())
	}
	if rep.LargestAtEnd() >= 1 {
		t.Errorf("LargestAtEnd = %v, want < 1 after the relay died", rep.LargestAtEnd())
	}
	if math.IsNaN(rep.SpreadAtFirstDeath) || rep.SpreadAtFirstDeath <= 0 {
		t.Errorf("SpreadAtFirstDeath = %v, want > 0 (uneven relay load)", rep.SpreadAtFirstDeath)
	}
	if rep.TotalSpent <= 0 {
		t.Error("no energy spent")
	}
}

// TestLifetimeRotationExtendsFirstDeath is the Q03 contrast in miniature:
// with two spares per role, the relay rotates through three batteries and
// the first permanent death arrives ≈3× later.
func TestLifetimeRotationExtendsFirstDeath(t *testing.T) {
	g, pos := lineInstance()
	base, err := SimulateLifetime(g, pos, nil, []int32{0}, lineSpec(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := lineSpec()
	spec.Rotation = true
	spec.Spares = []int{0, 2, 2, 2}
	rot, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rot.Rotations == 0 {
		t.Fatal("rotation never happened")
	}
	lo, hi := 2*base.FirstDeath, 4*base.FirstDeath
	if rot.FirstDeath < lo || rot.FirstDeath > hi {
		t.Errorf("rotated FirstDeath = %d, want within [%d, %d] (base %d)",
			rot.FirstDeath, lo, hi, base.FirstDeath)
	}
}

func TestLifetimeDeterministic(t *testing.T) {
	box := geom.Box(8, 8)
	pts := pointprocess.Poisson(box, 8, rng.New(3))
	udg := rgg.UDG(pts, 1)
	members, _ := graph.LargestComponent(udg.CSR)
	if len(members) < 20 {
		t.Skip("deployment too sparse")
	}
	sink := NearestSink(pts, members)
	spec := DefaultSpec()
	spec.Capacity = 300
	spec.MaxRounds = 200
	run := func() *Report {
		rep, err := SimulateLifetime(udg.CSR, pts, members, []int32{sink}, spec, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different reports:\n%+v\nvs\n%+v", a, b)
	}
	if a.FirstDeath < 0 || a.Rounds == 0 {
		t.Errorf("degenerate run: %+v", a)
	}
}

func TestLifetimeInputValidation(t *testing.T) {
	g, pos := lineInstance()
	cases := map[string]func() error{
		"no sinks": func() error {
			_, err := SimulateLifetime(g, pos, nil, nil, lineSpec(), rng.New(1))
			return err
		},
		"sink outside participants": func() error {
			_, err := SimulateLifetime(g, pos, []int32{0, 1}, []int32{3}, lineSpec(), rng.New(1))
			return err
		},
		"zero capacity": func() error {
			s := lineSpec()
			s.Capacity = 0
			_, err := SimulateLifetime(g, pos, nil, []int32{0}, s, rng.New(1))
			return err
		},
		"zero packet": func() error {
			s := lineSpec()
			s.PacketBits = 0
			_, err := SimulateLifetime(g, pos, nil, []int32{0}, s, rng.New(1))
			return err
		},
		"negative rate": func() error {
			s := lineSpec()
			s.Rate = -1
			_, err := SimulateLifetime(g, pos, nil, []int32{0}, s, rng.New(1))
			return err
		},
		"position mismatch": func() error {
			_, err := SimulateLifetime(g, pos[:3], nil, []int32{0}, lineSpec(), rng.New(1))
			return err
		},
		"only sinks": func() error {
			_, err := SimulateLifetime(g, pos, []int32{0}, []int32{0}, lineSpec(), rng.New(1))
			return err
		},
		"out-of-range sink": func() error {
			_, err := SimulateLifetime(g, pos, nil, []int32{-1}, lineSpec(), rng.New(1))
			return err
		},
	}
	for name, fn := range cases {
		if fn() == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestSinkChoiceEmptyParticipants: the deterministic sink pickers must
// degrade to "no sink" on an empty participant set (a SENS build can
// legally produce zero members) instead of returning a poisoned index.
func TestSinkChoiceEmptyParticipants(t *testing.T) {
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}
	if got := QuadrantSinks(pos, []int32{}); got != nil {
		t.Errorf("QuadrantSinks(empty) = %v, want nil", got)
	}
	if got := NearestSink(pos, []int32{}); got != -1 {
		t.Errorf("NearestSink(empty) = %d, want -1", got)
	}
	if got := QuadrantSinks(nil, nil); got != nil {
		t.Errorf("QuadrantSinks(no positions) = %v, want nil", got)
	}
}

func TestUniformSpares(t *testing.T) {
	sp := UniformSpares(10, []int32{2, 5})
	if sp[2] != 4 || sp[5] != 4 || sp[0] != 0 {
		t.Errorf("spares = %v", sp)
	}
	if UniformSpares(3, []int32{0, 1, 2}) != nil {
		t.Error("no surplus should mean nil spares")
	}
	if UniformSpares(0, nil) != nil {
		t.Error("empty membership should mean nil spares")
	}
}

// TestLifetimeStepAllocsSteadyState is the allocation gate: once the sim is
// built, rounds in which nothing dies allocate nothing — buffers, curves
// and route state are all preallocated.
func TestLifetimeStepAllocsSteadyState(t *testing.T) {
	box := geom.Box(8, 8)
	pts := pointprocess.Poisson(box, 8, rng.New(3))
	udg := rgg.UDG(pts, 1)
	members, _ := graph.LargestComponent(udg.CSR)
	spec := DefaultSpec()
	spec.Capacity = 1e12 // nobody dies
	spec.MaxRounds = 100000
	s, err := newSim(udg.CSR, pts, members, []int32{NearestSink(pts, members)}, spec)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(5)
	s.step(g) // warm-up: builds routes and the initial component count
	if a := testing.AllocsPerRun(50, func() {
		if !s.step(g) {
			t.Fatal("sim ended unexpectedly")
		}
	}); a != 0 {
		t.Errorf("steady-state round allocates %.2f, want 0", a)
	}
}

// BenchmarkSimulateLifetime runs the full lifetime simulation (UDG members
// over a λ=8 deployment, default spec) end to end — the component-level
// cost of one Q-scenario cell.
func BenchmarkSimulateLifetime(b *testing.B) {
	box := geom.Box(10, 10)
	pts := pointprocess.Poisson(box, 8, rng.New(3))
	udg := rgg.UDG(pts, 1)
	members, _ := graph.LargestComponent(udg.CSR)
	sink := []int32{NearestSink(pts, members)}
	spec := DefaultSpec()
	spec.Capacity = 500
	spec.MaxRounds = 400
	b.ReportMetric(float64(len(members)), "members")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := SimulateLifetime(udg.CSR, pts, members, sink, spec, rng.New(rng.Seed(i)))
		if err != nil || rep.Rounds == 0 {
			b.Fatalf("bad run: %v", err)
		}
	}
}

// NearestSink returns the participant nearest the centroid of the
// participant positions — the deterministic single gateway (in the middle
// of the field) the lifetime tests run against — or −1 for an empty
// participant set. nodes nil means all vertices.
func NearestSink(pos []geom.Point, nodes []int32) int32 {
	if nodes == nil {
		nodes = make([]int32, len(pos))
		for i := range nodes {
			nodes[i] = int32(i)
		}
	}
	if len(nodes) == 0 {
		return -1
	}
	var cx, cy float64
	for _, v := range nodes {
		cx += pos[v].X
		cy += pos[v].Y
	}
	c := geom.Pt(cx/float64(len(nodes)), cy/float64(len(nodes)))
	best, bestD := nodes[0], math.Inf(1)
	for _, v := range nodes {
		if d := pos[v].Dist(c); d < bestD {
			best, bestD = v, d
		}
	}
	return best
}
