package experiments

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/hng"
	"repro/internal/mobility"
	"repro/internal/power"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/tiling"
)

// The M** scenarios exercise the mobility tentpole: trajectory-driven node
// motion (internal/mobility) over incrementally maintained structures
// (core.Kinetic for UDG-SENS, hng.Kinetic for HNG), whose equivalence to
// from-scratch rebuilds is the property the package tests pin. Substream
// map: 4400+ M01 displacement draws, 4420+ M02 trajectories, 4440+ M02
// stretch pair sampling, 4460+ M03 trajectories, 4480+ M03 traffic (keyed
// by structure, so a structure's static and mobile rows see the identical
// offered load and differ only in motion).
// Trajectories are cacheable pure data (Ctx.Trajectory, like Ctx.Faults);
// the kinetic maintainers are mutable and always built fresh per row from
// the cached static structures.

// m01Deltas is the displacement axis of M01, in box units (the λ=16
// deployment's tile side is 1.5, its radio radius 1).
var m01Deltas = []float64{0.1, 0.25, 0.5, 1, 2}

// m02Speeds and m03Speeds are the motion-speed axes, in box units per
// motion step.
var (
	m02Speeds = []float64{0.05, 0.2, 0.6}
	m03Speeds = []float64{0, 0.1, 0.3}
)

func registerMobility() {
	dVals := make([]string, len(m01Deltas))
	for i, v := range m01Deltas {
		dVals[i] = f4(v)
	}
	scenario.Register(scenario.Scenario{
		ID: "M01", Name: "mobility-repair-cost",
		Title: "Incremental repair cost vs displacement: dirty-region work, not O(n)",
		Tags:  []string{"mobility", "kinetic", "extension"},
		Grid: []scenario.Param{
			grid("structure", "UDG-SENS", "HNG(p=1/8)"),
			{Name: "δ", Values: dVals},
		},
		Needs: []string{"deployment", "udg-base", "udg-sens", "hng"},
		Run:   m01RepairCost,
	})
	sVals := make([]string, len(m02Speeds))
	for i, v := range m02Speeds {
		sVals[i] = f4(v)
	}
	scenario.Register(scenario.Scenario{
		ID: "M02", Name: "mobility-drift",
		Title: "Structure drift under sustained motion: connectivity and stretch",
		Tags:  []string{"mobility", "kinetic", "stretch", "extension"},
		Grid: []scenario.Param{
			grid("structure", "UDG-SENS", "HNG(p=1/8)"),
			{Name: "speed", Values: sVals},
		},
		Needs: []string{"deployment", "udg-base", "udg-sens", "hng"},
		Run:   m02Drift,
	})
	scenario.Register(scenario.Scenario{
		ID: "M03", Name: "mobility-lifetime",
		Title: "Network lifetime on a mobile network (Q01 on moving nodes)",
		Tags:  []string{"mobility", "kinetic", "energy", "lifetime", "extension"},
		Grid: []scenario.Param{
			grid("structure", "UDG-SENS", "HNG(p=1/8)"),
			grid("motion", "static", "v=0.1", "v=0.3"),
		},
		Needs: []string{"deployment", "udg-base", "udg-sens", "hng"},
		Run:   m03MobileLifetime,
	})
}

// kineticStructure is the operation surface the two incremental maintainers
// share; the M scenarios and the mobile-lifetime adapter drive either
// through it. M01 and M02 report per-move repair counters, so they drive
// Move; M03 reads only the graph and repairs once per motion step through
// Round.
type kineticStructure interface {
	Move(u int32, p geom.Point)
	Round(dead []int32, moves []mobility.Move) (moved int)
	Materialize() *graph.CSR
	Positions() []geom.Point
	AliveMask() []bool
}

// kineticCost is one normalized repair-cost sample: the maintainer-specific
// counters mapped onto a shared shape. For UDG-SENS, recomputes counts tile
// re-elections and swaps counts contribution-list swaps; for HNG,
// recomputes counts nearest-neighbor link re-queries and swaps counts
// pruning-group plus MST rebuilds. rebuildUnits is what a from-scratch
// rebuild pays in the same currency (all tiles / all links).
type kineticCost struct {
	recomputes, swaps, edgeChanges int
	rebuildUnits                   int
}

// sensKinetic builds a fresh UDG-SENS maintainer over the shared λ=16
// network. The cost snapshot closure drains the maintainer's counters.
func sensKinetic(ctx *scenario.Ctx) (kineticStructure, func() kineticCost, error) {
	dep := hngDeployment(ctx)
	net, err := ctx.UDGNet(dep, tiling.DefaultUDGSpec(), scenario.NetOptions{})
	if err != nil {
		return nil, nil, err
	}
	k, err := core.NewKinetic(net, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	tiles := net.Stats.Tiles
	return k, func() kineticCost {
		s := k.ResetStats()
		return kineticCost{s.TileRecomputes, s.ContribRecomputes, s.EdgeChanges, tiles}
	}, nil
}

// hngKinetic builds a fresh HNG maintainer over H02's cached p=1/8 graph
// (stream 2010) on the same deployment.
func hngKinetic(ctx *scenario.Ctx) (kineticStructure, func() kineticCost, error) {
	dep := hngDeployment(ctx)
	h, err := ctx.HNG(dep, hng.DefaultSpec(), 2010)
	if err != nil {
		return nil, nil, err
	}
	k := hng.NewKinetic(h, dep.Box)
	n := len(dep.Pts)
	return k, func() kineticCost {
		s := k.ResetStats()
		return kineticCost{s.LinkRecomputes, s.GroupRecomputes + s.MSTRecomputes,
			s.EdgeChanges, n}
	}, nil
}

// mKinetics is the structure axis shared by all three M scenarios.
var mKinetics = []struct {
	name  string
	build func(*scenario.Ctx) (kineticStructure, func() kineticCost, error)
}{
	{"UDG-SENS", sensKinetic},
	{"HNG(p=1/8)", hngKinetic},
}

// m01RepairCost measures what one node displacement costs the incremental
// maintainers, against what a from-scratch rebuild pays: the dirty-region
// claim, as a table. Each row drives K uniform displacements of magnitude
// ≤ δ through a fresh maintainer and reports per-move averages of the
// deterministic work counters (wall time is measured by the paired
// benchmarks, not here — counters keep the golden table exact).
func m01RepairCost(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("M01",
		"Incremental repair cost per move vs displacement δ (λ=16 deployment)",
		"structure", "δ", "moves", "recomputes/move", "swaps/move",
		"edge Δ/move", "rebuild units", "locality ×")
	box := hngDeployment(ctx).Box
	moves := cfg.Trials(300, 60)
	type rowKey struct{ s, d int }
	var keys []rowKey
	for s := range mKinetics {
		for d := range m01Deltas {
			keys = append(keys, rowKey{s, d})
		}
	}
	rows := make([][]string, len(keys))
	parallelFor(len(keys), func(i int) {
		key := keys[i]
		name, delta := mKinetics[key.s].name, m01Deltas[key.d]
		k, cost, err := mKinetics[key.s].build(ctx)
		if err != nil {
			rows[i] = []string{name, f4(delta), "ERR: " + err.Error(), "", "", "", "", ""}
			return
		}
		gen := rng.Sub(cfg.Seed, uint64(4400+i))
		cost() // drop any construction-time counters
		done := 0
		for done < moves {
			u := int32(gen.IntN(len(k.Positions())))
			if !k.AliveMask()[u] {
				continue
			}
			p := k.Positions()[u]
			p.X += (gen.Float64()*2 - 1) * delta
			p.Y += (gen.Float64()*2 - 1) * delta
			k.Move(u, box.Clamp(p))
			done++
		}
		c := cost()
		perMove := float64(c.recomputes) / float64(moves)
		locality := "n/a"
		if perMove > 0 {
			locality = f2(float64(c.rebuildUnits) / perMove)
		}
		rows[i] = []string{
			name, f4(delta), d(moves), f4(perMove),
			f4(float64(c.swaps) / float64(moves)),
			f4(float64(c.edgeChanges) / float64(moves)),
			d(c.rebuildUnits), locality,
		}
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r)
	}
	t.AddNote("recomputes are tile re-elections (UDG-SENS) or nearest-neighbor link " +
		"re-queries (HNG); rebuild units is the same counter for a from-scratch " +
		"rebuild (all mapped tiles / all links) and locality × their ratio — the " +
		"per-move work stays O(1)-ish in the displacement while the rebuild pays " +
		"the whole field, which is the dirty-region claim the equivalence-gated " +
		"package tests make exact")
	return t
}

// lccFraction returns the largest-component fraction over the graph's
// non-isolated vertices (sleeping and dead nodes are isolated by
// construction, so this measures the connectivity of the active structure).
func lccFraction(g *graph.CSR) float64 {
	active := 0
	for u := 0; u < g.N; u++ {
		if g.Start[u+1] > g.Start[u] {
			active++
		}
	}
	if active == 0 {
		return 0
	}
	lcc := graph.LargestComponentWhere(g, nil, func(u int32) bool {
		return g.Start[u+1] > g.Start[u]
	})
	return float64(lcc) / float64(active)
}

// meanStretchAt measures the maintained structure's mean distance stretch
// against a unit-disk base at the structure's own positions — the yardstick
// motion cannot stale, since it is built from the positions themselves.
func meanStretchAt(g *graph.CSR, base *rgg.Geometric, pairs int, stream uint64, seed rng.Seed) string {
	members, _ := graph.LargestComponent(base.CSR)
	samples, err := power.MeasureStretch(g, base.CSR, base.Pos, members, 0,
		pairs, pairs*40, rng.Sub(seed, stream))
	if err != nil {
		return "n/a"
	}
	ds := make([]float64, len(samples))
	for i, s := range samples {
		ds[i] = s.DistStretch
	}
	return f4(stats.Mean(ds))
}

// m02Drift replays a sustained random-waypoint trajectory through each
// maintainer and reports how the structure drifts: edge count, active-part
// connectivity and distance stretch before and after, plus the per-step
// repair cost that kept it current the whole way.
func m02Drift(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("M02",
		"Structure drift under sustained waypoint motion (λ=16 deployment)",
		"structure", "speed", "steps", "edges 0", "edges end", "lcc 0", "lcc end",
		"stretch 0", "stretch end", "recomputes/step")
	steps := cfg.Trials(40, 12)
	pairs := cfg.Trials(40, 10)
	dep := hngDeployment(ctx)
	radius := tiling.DefaultUDGSpec().Radius
	base0 := ctx.UDG(dep, radius)
	type rowKey struct{ s, v int }
	var keys []rowKey
	for s := range mKinetics {
		for v := range m02Speeds {
			keys = append(keys, rowKey{s, v})
		}
	}
	rows := make([][]string, len(keys))
	parallelFor(len(keys), func(i int) {
		key := keys[i]
		name, speed := mKinetics[key.s].name, m02Speeds[key.v]
		k, cost, err := mKinetics[key.s].build(ctx)
		if err != nil {
			rows[i] = []string{name, f4(speed), "ERR: " + err.Error(),
				"", "", "", "", "", "", ""}
			return
		}
		spec := mobility.Spec{Model: mobility.ModelWaypoint, Speed: speed,
			Pause: 2, Steps: steps}
		traj := ctx.Trajectory(dep, spec, uint64(4420+i))
		g0 := k.Materialize()
		stretch0 := meanStretchAt(g0, base0, pairs, uint64(4440+i), cfg.Seed)
		cost()
		for _, step := range traj.Steps {
			for _, mv := range step {
				k.Move(mv.Node, mv.To)
			}
		}
		c := cost()
		gN := k.Materialize()
		stretchN := meanStretchAt(gN, rgg.UDG(k.Positions(), radius), pairs, uint64(4440+i), cfg.Seed)
		rows[i] = []string{
			name, f4(speed), d(steps), d(g0.EdgeCount), d(gN.EdgeCount),
			f4(lccFraction(g0)), f4(lccFraction(gN)), stretch0, stretchN,
			f4(float64(c.recomputes) / float64(steps)),
		}
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r)
	}
	t.AddNote("lcc is the largest-component fraction of the non-isolated vertices; " +
		"stretch is mean shortest-path distance stretch against a fresh unit-disk " +
		"base at the SAME positions (start vs end), sampled on the base's largest " +
		"component. UDG-SENS re-elects as nodes cross tiles, so its structure " +
		"tracks motion; HNG's fixed hierarchy re-links but keeps its levels, and " +
		"faster motion mostly raises the repair bill, not the stretch")
	return t
}

// mobileStructure adapts a kinetic maintainer replaying a cached trajectory
// to energy.MobileNetwork: every `every` rounds it applies the next
// trajectory step to the surviving nodes, and battery deaths flow back into
// the maintainer so the structure sheds the dead as it moves. Deaths are
// buffered until the next motion step, which hands them and the step's
// moves to the maintainer as one Round; the simulation reads Graph only
// after a Step that reports a change, so the deferral is invisible to it.
type mobileStructure struct {
	k     kineticStructure
	traj  *mobility.Trajectory
	every int
	next  int
	dead  []int32
	g     *graph.CSR
}

func (m *mobileStructure) Step(round int) bool {
	if m.next >= len(m.traj.Steps) || round%m.every != 0 {
		return false
	}
	moved := m.k.Round(m.dead, m.traj.Steps[m.next])
	m.dead, m.g = m.dead[:0], nil
	m.next++
	return moved > 0
}

func (m *mobileStructure) Died(u int32) { m.dead = append(m.dead, u) }

func (m *mobileStructure) Graph() *graph.CSR {
	if m.g == nil {
		m.g = m.k.Materialize()
	}
	return m.g
}

func (m *mobileStructure) Positions() []geom.Point { return m.k.Positions() }

// m03MobileLifetime is Q01 on a moving network: the same lifetime engine,
// sinks and traffic model, but the structure underneath tracks waypoint
// motion through the incremental maintainers while batteries drain. The
// static rows are the Q01 baseline on the same traffic substreams.
func m03MobileLifetime(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("M03",
		"Network lifetime on a mobile network (waypoint motion, rate 1/2)",
		"structure", "motion", "roles", "first death", "coverage life",
		"rounds", "delivery", "alive@end", "lcc@end", "resid spread")
	dep := hngDeployment(ctx)
	spec := qSpec(cfg)
	motionSteps := cfg.Trials(100, 30)
	every := max(1, spec.MaxRounds/motionSteps)
	insts := []func(*scenario.Ctx) (*scenario.EnergyInstance, error){
		udgSensInstance,
		func(c *scenario.Ctx) (*scenario.EnergyInstance, error) {
			return hngInstance(c, hngDeployment(c), 2010)
		},
	}
	type rowKey struct{ s, v int }
	var keys []rowKey
	for s := range mKinetics {
		for v := range m03Speeds {
			keys = append(keys, rowKey{s, v})
		}
	}
	rows := make([][]string, len(keys))
	parallelFor(len(keys), func(i int) {
		key := keys[i]
		name, speed := mKinetics[key.s].name, m03Speeds[key.v]
		motion := "static"
		if speed > 0 {
			motion = "v=" + f4(speed)
		}
		fail := func(err error) {
			rows[i] = []string{name, motion, "ERR: " + err.Error(),
				"", "", "", "", "", "", ""}
		}
		inst, err := insts[key.s](ctx)
		if err != nil {
			fail(err)
			return
		}
		var rep *energy.Report
		if speed == 0 {
			rep, err = simulate(ctx, inst, spec, uint64(4480+key.s))
		} else {
			var k kineticStructure
			k, _, err = mKinetics[key.s].build(ctx)
			if err != nil {
				fail(err)
				return
			}
			mspec := mobility.Spec{Model: mobility.ModelWaypoint, Speed: speed,
				Pause: 2, Steps: motionSteps}
			traj := ctx.Trajectory(dep, mspec, uint64(4460+i))
			mob := &mobileStructure{k: k, traj: traj, every: every}
			rep, err = energy.SimulateMobileLifetime(mob, inst.Nodes, inst.Sinks,
				spec, rng.Sub(cfg.Seed, uint64(4480+key.s)))
		}
		if err != nil {
			fail(err)
			return
		}
		rows[i] = append([]string{name, motion,
			d(len(inst.Nodes) - len(inst.Sinks))}, lifetimeCells(rep)...)
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r)
	}
	t.AddNote("motion applies one waypoint trajectory step every %d "+
		"rounds (speed in box units per step); the structure is maintained "+
		"incrementally and every motion round forces a route rebuild, while "+
		"death-only rounds use local repair. Members keep their sensing role as "+
		"they move — a member drifting out of its elected tile may go unserved "+
		"until a later election or repair re-attaches it, which is the coverage "+
		"cost of mobility the static rows don't pay", every)
	return t
}
