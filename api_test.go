package sensnet_test

import (
	"math"
	"strings"
	"testing"

	sensnet "repro"
)

func TestPublicQuickstartFlow(t *testing.T) {
	box := sensnet.Box(24, 24)
	pts := sensnet.Deploy(box, 16, 1)
	if len(pts) < 1000 {
		t.Fatalf("deployment too small: %d", len(pts))
	}
	net, err := sensnet.BuildUDGSens(pts, box, sensnet.DefaultUDGSpec(), sensnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Members) == 0 {
		t.Fatal("empty network")
	}
	if net.MaxDegree() > 4 {
		t.Errorf("max degree %d", net.MaxDegree())
	}
	if !strings.Contains(net.String(), "UDG-SENS") {
		t.Errorf("String() = %q", net.String())
	}

	// Route between two good reps.
	_, coords := net.GoodReps()
	if len(coords) >= 2 {
		res, err := sensnet.Route(net, coords[0], coords[len(coords)-1], 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered && res.NodeHops < res.LatticeHops {
			t.Error("node hops below lattice hops")
		}
	}
}

func TestPublicNNFlow(t *testing.T) {
	spec := sensnet.PaperNNSpec()
	box := sensnet.Box(4*spec.TileSide(), 4*spec.TileSide())
	pts := sensnet.Deploy(box, 1, 2)
	net, err := sensnet.BuildNNSens(pts, box, spec, sensnet.Options{SkipBase: true})
	if err != nil {
		t.Fatal(err)
	}
	if net.Stats.Tiles != 16 {
		t.Errorf("tiles = %d", net.Stats.Tiles)
	}
}

func TestPublicHNGFlow(t *testing.T) {
	box := sensnet.Box(16, 16)
	pts := sensnet.Deploy(box, 8, 4)
	g, err := sensnet.BuildHNG(pts, sensnet.DefaultHNGSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Levels) != len(pts) || g.EdgeCount == 0 {
		t.Fatalf("bad HNG: %v", g)
	}
	if !strings.Contains(g.String(), "HNG") {
		t.Errorf("String() = %q", g.String())
	}
	if _, err := sensnet.BuildHNG(pts, sensnet.HNGSpec{P: 2}, 5); err == nil {
		t.Error("invalid spec should fail")
	}
}

// TestPublicLifetimeFlow exercises the energy surface: build a SENS
// network, pick its quadrant sinks, run the lifetime simulation and check
// the report is internally consistent and deterministic.
func TestPublicLifetimeFlow(t *testing.T) {
	box := sensnet.Box(16, 16)
	pts := sensnet.Deploy(box, 16, 6)
	net, err := sensnet.BuildUDGSens(pts, box, sensnet.DefaultUDGSpec(), sensnet.Options{SkipBase: true})
	if err != nil {
		t.Fatal(err)
	}
	sinks := sensnet.LifetimeSinks(net)
	if len(sinks) == 0 {
		t.Fatal("no sinks chosen")
	}
	spec := sensnet.DefaultLifetimeSpec()
	spec.MaxRounds = 150
	rep, err := sensnet.SimulateLifetime(net, sinks, spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds == 0 || rep.Attempted != rep.Delivered+rep.Dropped {
		t.Fatalf("inconsistent report: %+v", rep)
	}
	if len(rep.Alive) != rep.Rounds {
		t.Fatalf("curve length %d != rounds %d", len(rep.Alive), rep.Rounds)
	}
	rep2, err := sensnet.SimulateLifetime(net, sinks, spec, 11)
	if err != nil || rep2.FirstDeath != rep.FirstDeath || rep2.Delivered != rep.Delivered {
		t.Errorf("same seed diverged: %v vs %v (err %v)", rep.FirstDeath, rep2.FirstDeath, err)
	}

	// The HNG variant runs over every node.
	h, err := sensnet.BuildHNG(pts, sensnet.DefaultHNGSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	hrep, err := sensnet.SimulateHNGLifetime(h, sinks, spec, 11)
	if err != nil || hrep.Rounds == 0 {
		t.Fatalf("HNG lifetime: %v (%+v)", err, hrep)
	}

	// The model surface is usable directly.
	m := sensnet.DefaultEnergyModel()
	if m.TxCost(1, 1) <= m.RxCost(1) {
		t.Error("unit-distance tx should cost more than rx")
	}
	b := sensnet.Battery{Charge: 1}
	if b.Drain(2) || !b.Dead() {
		t.Error("battery arithmetic broken")
	}
}

func TestPublicDeployN(t *testing.T) {
	pts := sensnet.DeployN(sensnet.Box(5, 5), 250, 3)
	if len(pts) != 250 {
		t.Errorf("DeployN = %d points", len(pts))
	}
}

func TestPublicBaselines(t *testing.T) {
	pts := sensnet.Deploy(sensnet.Box(10, 10), 3, 4)
	udg := sensnet.UDG(pts, 1)
	for name, g := range map[string]*sensnet.Geometric{
		"gabriel": sensnet.Gabriel(udg),
		"rng":     sensnet.RelativeNeighborhood(udg),
		"yao":     sensnet.Yao(udg, 6),
		"emst":    sensnet.EMST(udg),
		"nn":      sensnet.NN(pts, 4),
	} {
		if g.N != len(pts) {
			t.Errorf("%s: N = %d", name, g.N)
		}
	}
}

func TestPublicExperimentAccess(t *testing.T) {
	ids := sensnet.ExperimentIDs()
	if len(ids) != 30 || ids[0] != "E01" || ids[17] != "E18" || ids[20] != "H03" || ids[26] != "R03" || ids[29] != "M03" {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	tab := sensnet.RunExperiment("E01", sensnet.ExperimentConfig{Seed: 5, Scale: 0.1})
	if tab == nil || len(tab.Rows) == 0 {
		t.Fatal("E01 produced no table")
	}
	if sensnet.RunExperiment("E99", sensnet.ExperimentConfig{}) != nil {
		t.Error("unknown experiment should return nil")
	}
}

func TestPublicLiteralGeometryCaveat(t *testing.T) {
	// The documented negative result must be reachable through the API.
	box := sensnet.Box(12, 12)
	pts := sensnet.Deploy(box, 8, 6)
	net, err := sensnet.BuildUDGSens(pts, box, sensnet.PaperUDGSpec(), sensnet.Options{SkipBase: true})
	if err != nil {
		t.Fatal(err)
	}
	if net.Stats.GoodTiles != 0 {
		t.Error("literal geometry produced good tiles")
	}
}

func TestPublicBuildRejectsNonFiniteSpec(t *testing.T) {
	box := sensnet.Box(12, 12)
	pts := sensnet.Deploy(box, 8, 6)
	spec := sensnet.DefaultUDGSpec()
	spec.Side = math.NaN()
	if net, err := sensnet.BuildUDGSens(pts, box, spec, sensnet.Options{SkipBase: true}); err == nil {
		t.Errorf("NaN tile side built a network (%d members) without error", len(net.Members))
	}
}

func TestPublicDistributedAndFailures(t *testing.T) {
	box := sensnet.Box(15, 15)
	pts := sensnet.Deploy(box, 16, 10)
	dist, err := sensnet.BuildUDGSensDistributed(pts, box, sensnet.DefaultUDGSpec())
	if err != nil {
		t.Fatal(err)
	}
	if dist.MessagesSent == 0 || len(dist.Network.Members) == 0 {
		t.Error("distributed build degenerate")
	}
	rep, err := sensnet.SimulateFailures(dist.Network, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rebuilt == nil {
		t.Error("no rebuilt network")
	}
}

func TestPublicDeployGradient(t *testing.T) {
	box := sensnet.Box(20, 10)
	pts := sensnet.DeployGradient(box, 2, 10, 12)
	if len(pts) < 800 {
		t.Fatalf("gradient deployment too small: %d", len(pts))
	}
	left, right := 0, 0
	for _, p := range pts {
		if p.X < 10 {
			left++
		} else {
			right++
		}
	}
	if left >= right {
		t.Errorf("gradient not realized: %d vs %d", left, right)
	}
}

func TestPublicScenarioSurface(t *testing.T) {
	scs := sensnet.Scenarios()
	if len(scs) != 30 {
		t.Fatalf("want 30 registered scenarios, got %d", len(scs))
	}
	if len(sensnet.ScenarioTags()) == 0 {
		t.Error("no scenario tags registered")
	}
	sel, err := sensnet.MatchScenarios("tag:election")
	if err != nil || len(sel) == 0 {
		t.Fatalf("MatchScenarios(tag:election) = %d, %v", len(sel), err)
	}
	hngScs, err := sensnet.MatchScenarios("tag:topology:hng")
	if err != nil || len(hngScs) != 3 {
		t.Fatalf("MatchScenarios(tag:topology:hng) = %d, %v", len(hngScs), err)
	}
	// Q01–Q03 plus R02 and M03, which ride the lifetime machinery.
	energyScs, err := sensnet.MatchScenarios("tag:energy")
	if err != nil || len(energyScs) != 5 {
		t.Fatalf("MatchScenarios(tag:energy) = %d, %v", len(energyScs), err)
	}
	// The M01–M03 moving-node family.
	mobileScs, err := sensnet.MatchScenarios("tag:mobility")
	if err != nil || len(mobileScs) != 3 {
		t.Fatalf("MatchScenarios(tag:mobility) = %d, %v", len(mobileScs), err)
	}
	// E18 (density robustness) plus the R01–R03 attack family.
	robustScs, err := sensnet.MatchScenarios("tag:robustness")
	if err != nil || len(robustScs) != 4 {
		t.Fatalf("MatchScenarios(tag:robustness) = %d, %v", len(robustScs), err)
	}

	var buf strings.Builder
	eng := sensnet.NewScenarioEngine(sensnet.NewTextSink(&buf))
	eng.Jobs = 2
	byName, err := sensnet.MatchScenarios("base-models", "E13")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := eng.Run(sensnet.ExperimentConfig{Seed: 3, Scale: 0.12}, byName)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "E01" || tables[1].ID != "E13" {
		t.Fatalf("engine returned wrong tables: %v", tables)
	}
	out := buf.String()
	if !strings.Contains(out, "E01 —") || !strings.Contains(out, "E13 —") ||
		strings.Index(out, "E01") > strings.Index(out, "E13") {
		t.Errorf("sink output wrong:\n%s", out)
	}

	var csv strings.Builder
	if _, err := sensnet.NewScenarioEngine(sensnet.NewCSVSink(&csv)).
		Run(sensnet.ExperimentConfig{Seed: 3, Scale: 0.12}, byName[:1]); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "scenario,model,") {
		t.Errorf("csv sink output wrong:\n%s", csv.String())
	}
}

// TestPublicFaultSurface exercises the robustness API end to end: victim
// ordering, crash schedule, loss composition, and a faulted lifetime run
// with localized repair.
func TestPublicFaultSurface(t *testing.T) {
	box := sensnet.Box(16, 16)
	pts := sensnet.Deploy(box, 16, 6)
	net, err := sensnet.BuildUDGSens(pts, box, sensnet.DefaultUDGSpec(), sensnet.Options{SkipBase: true})
	if err != nil {
		t.Fatal(err)
	}
	victims := sensnet.NetworkVictims(net, sensnet.SelectDegree, 1)
	if len(victims) != len(net.Members) {
		t.Fatalf("victim ordering covers %d of %d members", len(victims), len(net.Members))
	}
	// Degree ordering is seed-independent.
	again := sensnet.NetworkVictims(net, sensnet.SelectDegree, 99)
	for i := range victims {
		if victims[i] != again[i] {
			t.Fatal("degree ordering depends on the seed")
		}
	}

	sched := sensnet.CrashSchedule(victims, 0.1, 10, 0).WithLoss(0.05)
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(sched.Crashes), (len(victims)+9)/10; got != want {
		t.Fatalf("crash count %d, want ⌈10%%⌉ = %d", got, want)
	}

	spec := sensnet.DefaultLifetimeSpec()
	spec.MaxRounds = 80
	spec.Faults = sched
	spec.Repair = sensnet.RepairLocal
	sinks := sensnet.LifetimeSinks(net)
	rep, err := sensnet.SimulateLifetime(net, sinks, spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashed == 0 {
		t.Error("no crashes recorded despite the schedule")
	}
	if rep.Attempted != rep.Delivered+rep.Dropped+rep.Lost {
		t.Errorf("accounting: %d != %d+%d+%d", rep.Attempted, rep.Delivered, rep.Dropped, rep.Lost)
	}
	if rep.ResidualJain <= 0 || rep.ResidualJain > 1 {
		t.Errorf("ResidualJain = %v", rep.ResidualJain)
	}
}

func TestPublicScaleTierFlow(t *testing.T) {
	box := sensnet.Box(24, 24)
	// SoA deployment, streamed tile by tile, equals the slab form.
	s := sensnet.DeploySoA(box, 16, 21, 3)
	streamed := 0
	sensnet.DeployStream(box, 16, 21, 3, func(tile sensnet.Rect, xs, ys []float64) {
		streamed += len(xs)
	})
	if streamed != s.Len() {
		t.Fatalf("DeployStream emitted %d points, DeploySoA holds %d", streamed, s.Len())
	}
	pts := s.Points(nil)

	a := sensnet.UDGGrid(pts, 1)
	if c := sensnet.UDGGridSoA(s, 1); c.EdgeCount != a.EdgeCount {
		t.Fatalf("UDGGridSoA %d edges, UDGGrid %d", c.EdgeCount, a.EdgeCount)
	}

	// The SENS build over the supplied grid base equals the build that
	// constructs its own base.
	given, err := sensnet.BuildUDGSens(pts, box, sensnet.DefaultUDGSpec(), sensnet.Options{Base: a})
	if err != nil {
		t.Fatal(err)
	}
	own, err := sensnet.BuildUDGSens(pts, box, sensnet.DefaultUDGSpec(), sensnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if given.Stats != own.Stats || len(given.Members) != len(own.Members) || own.Base.EdgeCount != a.EdgeCount {
		t.Fatalf("build over the supplied base diverged: %+v vs %+v", given.Stats, own.Stats)
	}
}
