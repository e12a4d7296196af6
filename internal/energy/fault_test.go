package energy

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
)

// gridInstance builds a k×k unit grid (4-neighborhood) — enough path
// diversity for local repair to have alternatives.
func gridInstance(k int) (*graph.CSR, []geom.Point) {
	b := graph.NewBuilder(k * k)
	pos := make([]geom.Point, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			i := int32(y*k + x)
			pos[i] = geom.Pt(float64(x), float64(y))
			if x+1 < k {
				b.AddEdge(i, i+1)
			}
			if y+1 < k {
				b.AddEdge(i, i+int32(k))
			}
		}
	}
	return b.Build(), pos
}

// TestNilFaultsBitIdentical pins the compatibility guarantee: a Spec with
// Faults nil (and either repair policy's zero value) produces exactly the
// same report as the pre-fault simulator, draw for draw.
func TestNilFaultsBitIdentical(t *testing.T) {
	g, pos := gridInstance(6)
	spec := lineSpec()
	spec.Rate = 0.5 // exercise the stochastic traffic path
	a, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.Faults = nil
	spec2.Repair = RepairRebuild
	b, err := SimulateLifetime(g, pos, nil, []int32{0}, spec2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.FirstDeath != b.FirstDeath ||
		a.Delivered != b.Delivered || a.TotalSpent != b.TotalSpent {
		t.Fatalf("fault-free runs diverged: %+v vs %+v", a, b)
	}
	// An empty (but non-nil) schedule must also change nothing: LossAt is 0
	// every round, so no extra draws happen.
	spec3 := spec
	spec3.Faults = &fault.Schedule{}
	c, err := SimulateLifetime(g, pos, nil, []int32{0}, spec3, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != c.Rounds || a.Delivered != c.Delivered || a.TotalSpent != c.TotalSpent {
		t.Fatalf("empty schedule diverged: rounds %d vs %d, delivered %d vs %d",
			a.Rounds, c.Rounds, a.Delivered, c.Delivered)
	}
}

// TestCrashStopAtRoundBoundary: a scheduled crash kills the victim at the
// boundary entering its round, regardless of battery charge, counts in
// Crashed, and sets FirstDeath.
func TestCrashStopAtRoundBoundary(t *testing.T) {
	g, pos := lineInstance()
	spec := lineSpec()
	spec.Faults = &fault.Schedule{Crashes: []fault.Event{{Round: 5, Node: 2}}}
	rep, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashed != 1 {
		t.Fatalf("Crashed = %d, want 1", rep.Crashed)
	}
	if rep.FirstDeath != 5 {
		t.Fatalf("FirstDeath = %d, want the crash round 5", rep.FirstDeath)
	}
	// Node 2's crash severs node 3: rounds 1–4 deliver 3 reports each, from
	// round 5 on only node 1 reports (node 3 is alive but routeless under
	// full rebuild — its packets drop).
	if rep.Alive[3] != 1.0 || rep.Alive[4] == 1.0 {
		t.Fatalf("alive curve around the crash: %v", rep.Alive[:6])
	}
	if rep.Dropped == 0 {
		t.Fatal("severed node's reports were not dropped")
	}
}

// TestCrashedSinkStopsCollecting: crashing the only sink routing-kills the
// simulation — the forest seeds only from alive sinks.
func TestCrashedSinkStopsCollecting(t *testing.T) {
	g, pos := lineInstance()
	spec := lineSpec()
	spec.Faults = &fault.Schedule{Crashes: []fault.Event{{Round: 3, Node: 0}}}
	rep, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds > 3 {
		t.Fatalf("simulation ran %d rounds past the sink's crash at round 3", rep.Rounds)
	}
}

// TestMessageLossShiftsDeliveryRatio: per-hop Bernoulli loss turns
// delivered packets into Lost ones without touching Attempted, and the
// delivery ratio drops accordingly.
func TestMessageLossShiftsDeliveryRatio(t *testing.T) {
	g, pos := gridInstance(6)
	spec := lineSpec()
	spec.MaxRounds = 50
	base, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = (&fault.Schedule{}).WithLoss(0.2)
	lossy, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Lost == 0 {
		t.Fatal("20% loss produced no lost packets")
	}
	if lossy.Attempted != lossy.Delivered+lossy.Dropped+lossy.Lost {
		t.Fatalf("accounting: %d != %d + %d + %d",
			lossy.Attempted, lossy.Delivered, lossy.Dropped, lossy.Lost)
	}
	if lossy.DeliveryRatio() >= base.DeliveryRatio() {
		t.Fatalf("loss did not reduce delivery ratio: %v vs %v",
			lossy.DeliveryRatio(), base.DeliveryRatio())
	}
	// Burst windows push loss higher still inside the window.
	spec.Faults = spec.Faults.WithBurst(1, 50, 0.5)
	burst, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if burst.DeliveryRatio() >= lossy.DeliveryRatio() {
		t.Fatalf("burst window did not reduce delivery further: %v vs %v",
			burst.DeliveryRatio(), lossy.DeliveryRatio())
	}
}

// TestRepairLocalKeepsServing: after an interior crash on a grid, local
// repair re-attaches the orphaned subtree and keeps packets flowing —
// delivery continues (graceful degradation), matching full rebuild on
// served fraction direction.
func TestRepairLocalKeepsServing(t *testing.T) {
	g, pos := gridInstance(6)
	spec := lineSpec()
	spec.MaxRounds = 30
	spec.Capacity = 50000 // batteries must outlive the crash schedule
	// Crash two nodes near the sink's corner at round 5; sink neighbor 6
	// survives, so every orphan has a detour.
	sched := &fault.Schedule{Crashes: []fault.Event{{Round: 5, Node: 1}, {Round: 5, Node: 7}}}
	for _, repair := range []RepairPolicy{RepairRebuild, RepairLocal} {
		spec.Faults = sched
		spec.Repair = repair
		rep, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Crashed != 2 {
			t.Fatalf("repair=%d: Crashed = %d, want 2", repair, rep.Crashed)
		}
		// Nodes 1 and 6 dead: the rest of the grid still reaches sink 0 via
		// the diagonal neighbors' detours — both policies must keep serving.
		if got := rep.Served[len(rep.Served)-1]; got < 0.8 {
			t.Fatalf("repair=%d: served fell to %v after a repairable crash", repair, got)
		}
		if rep.Rounds < 30 {
			t.Fatalf("repair=%d: simulation ended early at round %d", repair, rep.Rounds)
		}
	}
}

// TestRepairLocalDeterministic: local repair is a pure function of the
// alive set and the prior forest — identical seeds give identical reports.
func TestRepairLocalDeterministic(t *testing.T) {
	g, pos := gridInstance(8)
	spec := lineSpec()
	spec.MaxRounds = 60
	spec.Capacity = 50000 // outlive the crash schedule
	spec.Repair = RepairLocal
	victims := []int32{9, 18, 27, 36, 45}
	spec.Faults = fault.CrashSchedule(victims, 1.0, 4, 1)
	a, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Delivered != b.Delivered || a.Dropped != b.Dropped ||
		a.TotalSpent != b.TotalSpent || a.Crashed != b.Crashed {
		t.Fatalf("local repair nondeterministic: %+v vs %+v", a, b)
	}
	if a.Crashed != len(victims) {
		t.Fatalf("Crashed = %d, want %d", a.Crashed, len(victims))
	}
}

// TestResidualJainReported: the report carries Jain's index over residual
// energy, in (0, 1], and equal to ~1 before any asymmetric drain.
func TestResidualJainReported(t *testing.T) {
	g, pos := gridInstance(4)
	spec := lineSpec()
	spec.MaxRounds = 3
	rep, err := SimulateLifetime(g, pos, nil, []int32{0}, spec, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.ResidualJain) || rep.ResidualJain <= 0 || rep.ResidualJain > 1 {
		t.Fatalf("ResidualJain = %v, want in (0, 1]", rep.ResidualJain)
	}
	// Relays near the sink drain faster even in 3 rounds, but consumption is
	// a small fraction of capacity, so the index stays high.
	if rep.ResidualJain < 0.7 {
		t.Fatalf("ResidualJain = %v after 3 rounds, want near 1", rep.ResidualJain)
	}
}
