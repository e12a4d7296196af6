package experiments

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/scenario"
)

// The R** scenarios are the adversarial-robustness family: instead of
// draining a healthy network they attack it — crash-stop failures (random
// and targeted, the random-failure vs targeted-attack contrast of
// arXiv:1405.3368), per-link message loss, and the retry/backoff recovery
// machinery of arXiv:2001.02761. Fault schedules are pure data built from
// dedicated RNG substreams, so they ride the scenario cache (Ctx.Faults)
// like deployments do; the simulations applying them never cache.
//
// Substream map: 4200+ R01 random victim orders, 4150+ R02 random victim
// orders, 4100+ R02 traffic, 4300+ R03 lattice/pairs and per-cell loss.

// r01Fractions is the removed-fraction axis of the decay curves.
var r01Fractions = []float64{0.1, 0.2, 0.3, 0.4, 0.5}

// r03Losses and r03Policies are the R03 sweep axes.
var (
	r03Losses   = []float64{0, 0.05, 0.1, 0.2}
	r03Policies = []string{"off", "capped", "unbounded"}
)

func registerRobustness() {
	fracVals := make([]string, len(r01Fractions))
	for i, f := range r01Fractions {
		fracVals[i] = f4(f)
	}
	lossVals := make([]string, len(r03Losses))
	for i, l := range r03Losses {
		lossVals[i] = f4(l)
	}
	scenario.Register(scenario.Scenario{
		ID: "R01", Name: "attack-decay",
		Title: "Giant-component decay: random failure vs targeted attack, per topology",
		Tags:  []string{"robustness", "attack", "fault"},
		Grid: []scenario.Param{
			grid("structure", "UDG-SENS", "NN-SENS", "HNG(p=1/8)"),
			grid("attack", "random", "degree", "betweenness"),
			{Name: "removed", Values: fracVals},
		},
		Needs: []string{"deployment", "udg-sens", "nn-sens", "hng", "fault-schedule"},
		Run:   r01Decay,
	})
	scenario.Register(scenario.Scenario{
		ID: "R02", Name: "lifetime-under-attack",
		Title: "Network lifetime under crash-stop attack vs the no-fault baseline",
		Tags:  []string{"robustness", "attack", "energy", "lifetime"},
		Grid: []scenario.Param{
			grid("structure", "UDG-SENS", "NN-SENS", "HNG(p=1/8)"),
			grid("fault", "none", "random 10%", "degree 10%"),
		},
		Needs: []string{"deployment", "udg-sens", "nn-sens", "hng",
			"lifetime-instance", "fault-schedule"},
		Run: r02LifetimeUnderAttack,
	})
	scenario.Register(scenario.Scenario{
		ID: "R03", Name: "loss-retry",
		Title: "Delivery and energy per delivered packet: loss rate × retry policy",
		Tags:  []string{"robustness", "loss", "retry", "routing"},
		Grid: []scenario.Param{
			{Name: "loss", Values: lossVals},
			grid("policy", r03Policies...),
		},
		Run: r03LossRetry,
	})
}

// robustnessInstance is one structure under attack: its cached lifetime
// instance (graph, members, sinks) plus the naming needed for cache keys.
type robustnessInstance struct {
	name string
	key  string // cache-key stem identifying the structure instance
	inst *scenario.EnergyInstance
}

// robustnessInstances prepares the three structures the R scenarios
// compare, mirroring Q01's topology head-to-head (UDG-SENS and HNG on the
// λ=16 deployment, NN-SENS on the λ=1 paper deployment).
func robustnessInstances(ctx *scenario.Ctx) ([]robustnessInstance, error) {
	udg, err := udgSensInstance(ctx)
	if err != nil {
		return nil, err
	}
	nn, err := nnSensInstance(ctx)
	if err != nil {
		return nil, err
	}
	hngDep := hngDeployment(ctx)
	h, err := hngInstance(ctx, hngDep, 2010)
	if err != nil {
		return nil, err
	}
	return []robustnessInstance{
		{"UDG-SENS", "udgsens|" + hngDeployment(ctx).Key, udg},
		{"NN-SENS", "nnsens|" + nnDeployment(ctx).Key, nn},
		{"HNG(p=1/8)", fmt.Sprintf("hng|%s|st=2010", hngDep.Key), h},
	}, nil
}

// poweredNodes returns the instance's battery-powered participants — the
// attack surface (sinks are mains-powered infrastructure, not sensors an
// adversary picks off).
func poweredNodes(inst *scenario.EnergyInstance) []int32 {
	out := make([]int32, 0, len(inst.Nodes))
	for _, v := range inst.Nodes {
		if !contains(inst.Sinks, v) {
			out = append(out, v)
		}
	}
	return out
}

// victimOrder returns the cached victim ordering for the structure under
// the selector, wrapped in a one-crash-per-round schedule so the ordering
// itself rides the fault cache: AliveSet(n, k) is then exactly "the first
// k victims removed". Random orderings consume substream stream entirely;
// targeted orderings are pure functions of the graph.
func victimOrder(ctx *scenario.Ctx, ri robustnessInstance, sel fault.Selector,
	stream uint64) *fault.Schedule {
	key := fmt.Sprintf("r01|%s|sel=%s|st=%d", ri.key, sel, stream)
	return ctx.Faults(key, func() *fault.Schedule {
		victims := fault.Victims(ri.inst.Graph, poweredNodes(ri.inst), sel,
			rng.Sub(ctx.Cfg.Seed, stream))
		return fault.CrashSchedule(victims, 1.0, 1, 1)
	})
}

// lccFrac returns the largest-connected-component fraction over the
// instance's participants restricted to the alive mask.
func lccFrac(inst *scenario.EnergyInstance, alive []bool) float64 {
	lcc := graph.LargestComponentWhere(inst.Graph, inst.Nodes,
		func(u int32) bool { return alive[u] })
	return float64(lcc) / float64(len(inst.Nodes))
}

// r01Decay removes a growing fraction of each structure's nodes — uniformly
// at random vs targeted at the highest-degree / highest-betweenness
// vertices — and tracks the giant-component fraction: the discriminating
// robustness measurement of the scale-free WSN literature. Victim orderings
// are cached fault schedules; the decay evaluation is pure arithmetic on
// AliveSet masks.
func r01Decay(ctx *scenario.Ctx) *Table {
	cols := []string{"structure", "attack", "roles", "lcc@0"}
	for _, f := range r01Fractions {
		cols = append(cols, "lcc@"+f4(f))
	}
	t := scenario.NewTable("R01",
		"Giant-component decay under random failure vs targeted attack", cols...)
	instances, err := robustnessInstances(ctx)
	if err != nil {
		t.AddRow("ERR: " + err.Error())
		return t
	}
	selectors := []fault.Selector{fault.SelectRandom, fault.SelectDegree, fault.SelectBetweenness}
	type job struct {
		ri  robustnessInstance
		sel fault.Selector
		idx int
	}
	var jobs []job
	for si, ri := range instances {
		for _, sel := range selectors {
			jobs = append(jobs, job{ri, sel, si})
		}
	}
	rows := make([][]string, len(jobs))
	parallelFor(len(jobs), func(i int) {
		j := jobs[i]
		sched := victimOrder(ctx, j.ri, j.sel, uint64(4200+j.idx))
		n := j.ri.inst.Graph.N
		roles := len(sched.Crashes)
		row := []string{j.ri.name, j.sel.String(), d(roles),
			f4(lccFrac(j.ri.inst, sched.AliveSet(n, 0)))}
		for _, f := range r01Fractions {
			removed := int(f * float64(roles))
			row = append(row, f4(lccFrac(j.ri.inst, sched.AliveSet(n, removed))))
		}
		rows[i] = row
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r)
	}
	t.AddNote("lcc@f = largest surviving component fraction after removing the first " +
		"f·roles victims (sinks excluded from the attack surface); the random row is a " +
		"uniform shuffle, degree/betweenness rows remove hubs/bridges first. Targeted " +
		"removal collapsing the giant component faster than random is the " +
		"arXiv:1405.3368 signature; bounded-degree SENS structures have no hubs to " +
		"decapitate, which is exactly the robustness the paper's P1 buys")
	return t
}

// r02LifetimeUnderAttack reruns the Q01 lifetime head-to-head with a
// crash-stop attack landing mid-run: 10% of each structure's roles, chosen
// uniformly vs by descending degree, crash at a scale-aware round. Fault
// variants of a structure share the traffic substream, so every shift vs
// the none row is pure fault effect. Routes heal via localized repair
// (graceful degradation), not full rebuild.
func r02LifetimeUnderAttack(ctx *scenario.Ctx) *Table {
	t := scenario.NewTable("R02",
		"Lifetime under crash-stop attack (10% of roles, localized route repair)",
		"structure", "fault", "crashed", "first death", "coverage life", "rounds",
		"delivery", "Δdelivery", "lcc@end", "resid jain")
	instances, err := robustnessInstances(ctx)
	if err != nil {
		t.AddRow("ERR: " + err.Error())
		return t
	}
	spec := qSpec(ctx.Cfg)
	spec.Repair = energy.RepairLocal
	crashRound := spec.MaxRounds / 10
	faults := []string{"none", "random 10%", "degree 10%"}
	type result struct {
		rep *energy.Report
		err error
	}
	results := make([]result, len(instances)*len(faults))
	parallelFor(len(results), func(i int) {
		si, fi := i/len(faults), i%len(faults)
		ri := instances[si]
		s := spec
		switch fi {
		case 1:
			key := fmt.Sprintf("r02|%s|sel=random|frac=0.1|round=%d|st=%d",
				ri.key, crashRound, 4150+si)
			s.Faults = ctx.Faults(key, func() *fault.Schedule {
				victims := fault.Victims(ri.inst.Graph, poweredNodes(ri.inst),
					fault.SelectRandom, rng.Sub(ctx.Cfg.Seed, uint64(4150+si)))
				return fault.CrashSchedule(victims, 0.1, crashRound, 0)
			})
		case 2:
			key := fmt.Sprintf("r02|%s|sel=degree|frac=0.1|round=%d", ri.key, crashRound)
			s.Faults = ctx.Faults(key, func() *fault.Schedule {
				victims := fault.Victims(ri.inst.Graph, poweredNodes(ri.inst),
					fault.SelectDegree, nil)
				return fault.CrashSchedule(victims, 0.1, crashRound, 0)
			})
		}
		rep, err := simulate(ctx, ri.inst, s, uint64(4100+si))
		results[i] = result{rep, err}
	})
	for i, res := range results {
		si, fi := i/len(faults), i%len(faults)
		if res.err != nil {
			t.AddRow(instances[si].name, faults[fi], "ERR: "+res.err.Error(),
				"", "", "", "", "", "", "")
			continue
		}
		rep := res.rep
		delta := "—"
		if base := results[si*len(faults)].rep; fi > 0 && base != nil {
			delta = f4(rep.DeliveryRatio() - base.DeliveryRatio())
		}
		t.AddRow(instances[si].name, faults[fi], d(rep.Crashed),
			d(rep.FirstDeath), d(rep.CoverageLifetime), d(rep.Rounds),
			f4(rep.DeliveryRatio()), delta, f4(rep.LargestAtEnd()), f4(rep.ResidualJain))
	}
	t.AddNote("the attack crashes ⌈10%%·roles⌉ nodes at round %d (battery state "+
		"irrelevant); fault variants share their structure's traffic substream, so "+
		"Δdelivery is the pure fault effect. Repair is localized (RepairLocal): intact "+
		"routes survive, orphans re-attach to the nearest intact neighbor. resid jain = "+
		"Jain fairness of residual energy (1 = perfectly even)", crashRound)
	return t
}

// r03EnergyUnits prices a routing attempt from its counters: every
// transmission attempt costs tx+rx (2 units; the rx is spent even on a lost
// packet's last hop in expectation, keeping the comparison simple) and
// every probe costs one message.
func r03EnergyUnits(res routing.Result) float64 {
	return 2*float64(res.Attempts) + float64(res.Probes)
}

// r03LossRetry sweeps per-link loss against the retry policy on the
// percolated-lattice router: delivery ratio and the energy cost of each
// delivered packet. The recovery question of arXiv:2001.02761 — retries
// restore QoS, but every retransmission spends battery; the energy per
// *delivered* packet is the honest price.
func r03LossRetry(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("R03",
		"Loss rate × retry policy: delivery ratio and energy per delivered packet",
		"loss", "policy", "routes", "delivered", "delivery", "attempts/route",
		"backoff/route", "energy/delivered")
	n := int(cfg.Size(60, 24))
	g := rng.Sub(cfg.Seed, 4300)
	l := lattice.Sample(n, n, 0.75, g)
	giant := l.LargestCluster()
	if len(giant) < 50 {
		t.AddRow("ERR: subcritical lattice realization")
		return t
	}
	// Pre-draw the route endpoints once (continuing the lattice substream,
	// E17-style direct build): every cell routes the same pairs, so the
	// policy axis is a paired comparison.
	routes := cfg.Trials(150, 40)
	type pair struct{ ax, ay, bx, by int }
	var pairs []pair
	for len(pairs) < routes {
		a := giant[g.IntN(len(giant))]
		b := giant[g.IntN(len(giant))]
		ax, ay := l.XY(a)
		bx, by := l.XY(b)
		if l.ChemicalDistance(ax, ay, bx, by) < 2 {
			continue
		}
		pairs = append(pairs, pair{ax, ay, bx, by})
	}
	policies := map[string]routing.Retry{
		"off":       {},
		"capped":    {Attempts: 4, Backoff: 1, MaxBackoff: 8, Jitter: 0.5, AltPath: true},
		"unbounded": {Attempts: -1, Backoff: 1, MaxBackoff: 8, Jitter: 0.5, AltPath: true},
	}
	type cell struct {
		loss   float64
		policy string
	}
	var cells []cell
	for _, loss := range r03Losses {
		for _, p := range r03Policies {
			cells = append(cells, cell{loss, p})
		}
	}
	rows := make([][]string, len(cells))
	parallelFor(len(cells), func(i int) {
		c := cells[i]
		opt := routing.Options{
			Loss:  c.loss,
			Rng:   rng.Sub(cfg.Seed, uint64(4310+i)),
			Retry: policies[c.policy],
		}
		var scratch routing.Scratch
		delivered := 0
		var attempts, backoff, energy float64
		for _, p := range pairs {
			res := routing.RouteXYInto(l, p.ax, p.ay, p.bx, p.by, opt, &scratch)
			attempts += float64(res.Attempts)
			backoff += res.Backoff
			energy += r03EnergyUnits(res)
			if res.Delivered {
				delivered++
			}
		}
		perDelivered := "n/a"
		if delivered > 0 {
			perDelivered = f4(energy / float64(delivered))
		}
		rows[i] = []string{f4(c.loss), c.policy, d(len(pairs)), d(delivered),
			f4(float64(delivered) / float64(len(pairs))),
			f4(attempts / float64(len(pairs))),
			f4(backoff / float64(len(pairs))), perDelivered}
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r)
	}
	t.AddNote("all cells route the same endpoint pairs on one p=0.75 lattice; each cell " +
		"draws its loss/jitter from its own substream. off = single attempt per hop; " +
		"capped = ≤4 attempts, backoff 1·2^k capped at 8, jitter 0.5, alternate-path " +
		"fallback; unbounded = unlimited attempts. energy/delivered prices every " +
		"attempt at tx+rx=2 plus 1 per probe — retries buy delivery back at a " +
		"measurable energy premium, and unbounded pays more for little over capped")
	return t
}
