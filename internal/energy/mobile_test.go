package energy

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
)

// staticMobile wraps a fixed graph as a MobileNetwork that never changes —
// the degenerate case that must reproduce the static simulation exactly.
type staticMobile struct {
	g     *graph.CSR
	pos   []geom.Point
	died  []int32
	steps int
}

func (m *staticMobile) Step(round int) bool     { m.steps++; return false }
func (m *staticMobile) Died(u int32)            { m.died = append(m.died, u) }
func (m *staticMobile) Graph() *graph.CSR       { return m.g }
func (m *staticMobile) Positions() []geom.Point { return m.pos }

// jitterMobile drifts every node a tiny deterministic amount each round and
// rebuilds no edges — motion without structural change.
type jitterMobile struct {
	g   *graph.CSR
	pos []geom.Point
}

func (m *jitterMobile) Step(round int) bool {
	for i := range m.pos {
		m.pos[i].X += 0.001
	}
	return true
}
func (m *jitterMobile) Died(u int32)            {}
func (m *jitterMobile) Graph() *graph.CSR       { return m.g }
func (m *jitterMobile) Positions() []geom.Point { return m.pos }

// TestMobileStaticMatchesStatic pins the compatibility guarantee: a mobile
// run over a structure that never changes is bit-identical to the static
// entry point, and battery deaths are reported back through Died.
func TestMobileStaticMatchesStatic(t *testing.T) {
	g, pos := gridInstance(6)
	spec := lineSpec()
	spec.Rate = 0.5
	spec.MaxRounds = 120
	want, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	m := &staticMobile{g: g, pos: pos}
	got, err := SimulateMobileLifetime(m, nil, []int32{0}, spec, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Delivered != want.Delivered ||
		got.Dropped != want.Dropped || got.TotalSpent != want.TotalSpent {
		t.Fatalf("mobile(static) != static: %+v vs %+v", got, want)
	}
	// Step fires entering every round, including the final boundary at
	// which the simulation discovers it is over.
	if m.steps < got.Rounds || m.steps > got.Rounds+1 {
		t.Fatalf("Step called %d times over %d rounds", m.steps, got.Rounds)
	}
	if want.FirstDeath >= 0 && len(m.died) == 0 {
		t.Fatal("battery deaths were not reported to the mobile structure")
	}
}

// TestMobileJitterDeterministic: motion every round forces per-round route
// rebuilds; the run must stay deterministic and the drifting positions must
// raise tx costs relative to the static run (links stretch eastward).
func TestMobileJitterDeterministic(t *testing.T) {
	g, pos := gridInstance(6)
	spec := lineSpec()
	spec.MaxRounds = 50
	run := func() *Report {
		cp := append([]geom.Point(nil), pos...)
		rep, err := SimulateMobileLifetime(&jitterMobile{g: g, pos: cp}, nil, []int32{0}, spec, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.TotalSpent != b.TotalSpent || a.Delivered != b.Delivered {
		t.Fatalf("mobile run nondeterministic: %+v vs %+v", a, b)
	}
	if a.Rounds == 0 || a.Delivered == 0 {
		t.Fatalf("mobile run did nothing: %+v", a)
	}
}

// dyingMobile drifts every node a little every `every` rounds, and its graph
// sheds the edges of dead nodes. An eager one drops a node's edges as Died
// reports it; a deferring one buffers deaths until the next motion step, as
// the MobileNetwork contract allows.
type dyingMobile struct {
	base    *graph.CSR
	pos     []geom.Point
	every   int
	eager   bool
	dead    []bool
	pending []int32
	applied int // buffered deaths applied by a motion step
	g       *graph.CSR
}

func (m *dyingMobile) Step(round int) bool {
	if round%m.every != 0 {
		return false
	}
	for _, u := range m.pending {
		m.dead[u] = true
	}
	m.applied += len(m.pending)
	m.pending = m.pending[:0]
	for i := range m.pos {
		m.pos[i].Y += 0.002
	}
	m.g = nil
	return true
}

func (m *dyingMobile) Died(u int32) {
	if m.eager {
		m.dead[u], m.g = true, nil
		return
	}
	m.pending = append(m.pending, u)
}

func (m *dyingMobile) Graph() *graph.CSR {
	if m.g == nil {
		b := graph.NewBuilder(m.base.N)
		for u := int32(0); u < int32(m.base.N); u++ {
			for _, v := range m.base.Neighbors(u) {
				if u < v && !m.dead[u] && !m.dead[v] {
					b.AddEdge(u, v)
				}
			}
		}
		m.g = b.Build()
	}
	return m.g
}

func (m *dyingMobile) Positions() []geom.Point { return m.pos }

// TestMobileDeferredDeathsMatchEager pins the Died contract: a structure
// that buffers deaths until its next Step yields a Report identical to one
// that applies each death at once, because Graph is only consulted after a
// Step that reports a change.
func TestMobileDeferredDeathsMatchEager(t *testing.T) {
	g, pos := gridInstance(6)
	spec := lineSpec()
	spec.Rate = 0.5
	spec.Capacity = 400
	spec.MaxRounds = 200
	run := func(eager bool) (*Report, *dyingMobile) {
		m := &dyingMobile{base: g, pos: append([]geom.Point(nil), pos...), every: 3,
			eager: eager, dead: make([]bool, g.N)}
		rep, err := SimulateMobileLifetime(m, nil, []int32{0}, spec, rng.New(33))
		if err != nil {
			t.Fatal(err)
		}
		return rep, m
	}
	want, _ := run(true)
	got, deferred := run(false)
	if deferred.applied == 0 {
		t.Fatal("no buffered death reached a motion step; the test exercises nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deferred deaths changed the report:\n got %+v\nwant %+v", got, want)
	}
}

// TestRepairLocalNearestAttachment: an orphan with no intact graph
// neighbor still re-attaches — to the geometrically nearest intact node —
// so serving continues where adjacency-bound repair would strand it. The
// instance is a two-arm star: killing an arm's hub orphans its leaf, whose
// only graph neighbor was the hub.
func TestRepairLocalNearestAttachment(t *testing.T) {
	//  0 (sink) — 1 — 2   and   0 — 3 — 4, with 4 placed nearest to 1.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 4)
	g := b.Build()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(0, 1), geom.Pt(1, 0.5)}
	spec := lineSpec()
	spec.MaxRounds = 20
	spec.Capacity = 50000
	spec.Repair = RepairLocal
	spec.Faults = &fault.Schedule{Crashes: []fault.Event{{Round: 5, Node: 3}}}
	rep, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashed != 1 {
		t.Fatalf("Crashed = %d, want 1", rep.Crashed)
	}
	// Node 4 must keep serving through its nearest intact node (1), so all
	// three surviving sources stay served after the crash.
	if got := rep.Served[len(rep.Served)-1]; got < 0.75 {
		t.Fatalf("served = %v after crash; orphan 4 was not re-attached", got)
	}
	if rep.Rounds < 20 {
		t.Fatalf("simulation ended early at round %d", rep.Rounds)
	}
}

// TestRepairLocalAllocsSteadyState is the local-repair allocation gate:
// once the grid index exists, a repair pass allocates nothing — the orphan
// search runs entirely in preallocated scratch.
func TestRepairLocalAllocsSteadyState(t *testing.T) {
	g, pos := gridInstance(12)
	spec := lineSpec()
	spec.Capacity = 1e12
	spec.Repair = RepairLocal
	s, err := newSim(g, pos, nil, []int32{0}, spec)
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(3)
	s.step(gen) // builds the initial routes
	s.alive[77] = false
	s.noteDeath(77)
	s.nAlive--
	s.dirty = true
	s.step(gen) // first repair: builds the grid and scratch
	kill := int32(40)
	if a := testing.AllocsPerRun(30, func() {
		if s.alive[kill] {
			s.alive[kill] = false
			s.noteDeath(kill)
			s.nAlive--
			kill++
		}
		s.dirty = true
		s.repairRoutes()
	}); a != 0 {
		t.Errorf("steady-state local repair allocates %.2f, want 0", a)
	}
}
