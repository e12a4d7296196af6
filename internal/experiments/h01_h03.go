package experiments

import (
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/hng"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/tiling"
)

// The H** scenarios evaluate hierarchical neighbor graphs (internal/hng,
// arXiv:0903.0742) as the competing topology the ROADMAP names: the same
// deployments the SENS experiments use (pulled through the engine cache, so
// a suite run builds them once), measured with the same batched
// stretch/power engine.
// h01Ps is the promotion-probability sweep of H01 — the single source for
// both the declarative grid and the driver's loop.
var h01Ps = []float64{0.05, 0.1, 0.2, 0.3, 0.5}

func registerHNG() {
	pVals := make([]string, len(h01Ps))
	for i, p := range h01Ps {
		pVals[i] = f4(p)
	}
	scenario.Register(scenario.Scenario{
		ID: "H01", Name: "hng-sweep",
		Title: "HNG: hierarchy shape, degree and stretch vs promotion probability p",
		Tags:  []string{"hng", "topology:hng", "degree", "stretch"},
		Grid: []scenario.Param{
			{Name: "p", Values: pVals},
		},
		Needs: []string{"deployment", "udg-base", "hng", "measurer-slabs"},
		Run:   h01Sweep,
	})
	scenario.Register(scenario.Scenario{
		ID: "H02", Name: "hng-baselines",
		Title: "HNG vs UDG-SENS vs NN-SENS: sparsity, stretch and power head-to-head",
		Tags:  []string{"hng", "topology:hng", "power", "baseline"},
		Grid: []scenario.Param{
			grid("deployment", "UDG(λ=16)", "NN(λ=1)"),
			grid("structure", "base", "SENS", "HNG(p=1/8)"),
		},
		Needs: []string{"deployment", "udg-base", "udg-sens", "nn-base", "nn-sens",
			"hng", "measurer-slabs"},
		Run: h02Baselines,
	})
	scenario.Register(scenario.Scenario{
		ID: "H03", Name: "hng-churn",
		Title: "HNG: node churn — degradation without rebuild, reconstruction after",
		Tags:  []string{"hng", "topology:hng", "resilience", "extension"},
		Grid: []scenario.Param{
			grid("fail rate q", "0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6"),
			grid("method", "rebuild", "repair"),
		},
		Needs: []string{"deployment", "hng"},
		Run:   h03Churn,
	})
}

// hngDeployment pulls the λ=16 deployment the UDG-side comparisons run on.
// It is E14's deployment (same stream, box and density), so a suite run
// shares one Poisson draw — and its UDG base, SENS network and weight
// slabs — between the baseline table and every HNG scenario.
func hngDeployment(ctx *scenario.Ctx) scenario.Deployment {
	side := ctx.Cfg.Size(22, 12)
	return ctx.Deploy(930, geom.Box(side, side), 16)
}

// nnDeployment pulls the λ=1 paper-parameter deployment the NN-side
// comparisons run on (E10's stream 841 box, sized in PaperNNSpec tiles).
// Every consumer — H02's baselines, the Q** lifetime scenarios — must come
// through here: deployment sharing rides on the cache key, which this
// single recipe keeps identical.
func nnDeployment(ctx *scenario.Ctx) scenario.Deployment {
	spec := tiling.PaperNNSpec()
	tilesPerSide := int(ctx.Cfg.Size(5, 3))
	side := float64(tilesPerSide) * spec.TileSide()
	return ctx.Deploy(841, geom.Box(side, side), 1.0)
}

// h01Sweep sweeps the promotion probability p: how the hierarchy height,
// level populations, degree profile and distance stretch respond to the
// single parameter of the construction.
func h01Sweep(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("H01",
		"HNG hierarchy and stretch vs promotion probability p (λ=16 deployment)",
		"p", "levels", "top size", "edges", "mean deg", "max deg",
		"pruned parents", "mean stretch", "p99 stretch")
	dep := hngDeployment(ctx)
	base := ctx.UDG(dep, 1)
	baseMembers, _ := graph.LargestComponent(base.CSR)
	pairs := cfg.Trials(60, 15)
	rows := make([][]string, len(h01Ps))
	parallelFor(len(h01Ps), func(i int) {
		spec := hng.DefaultSpec()
		spec.P = h01Ps[i]
		h, err := ctx.HNG(dep, spec, uint64(2000+i))
		if err != nil {
			rows[i] = []string{f4(h01Ps[i]), "ERR: " + err.Error(), "", "", "", "", "", "", ""}
			return
		}
		meanStretch, p99Stretch := "n/a", "n/a"
		g := rng.Sub(cfg.Seed, uint64(2050+i))
		if samples, err := power.MeasureStretchCached(h.CSR, base.CSR, dep.Pts,
			baseMembers, 0, pairs, pairs*40, g, ctx.Slabs); err == nil {
			var ds []float64
			for _, s := range samples {
				ds = append(ds, s.DistStretch)
			}
			sum := stats.Summarize(ds)
			meanStretch, p99Stretch = f4(sum.Mean), f4(sum.P99)
		}
		top := h.Stats.LevelSizes[len(h.Stats.LevelSizes)-1]
		rows[i] = []string{
			f4(h01Ps[i]), d(h.Stats.Levels), d(top), d(h.EdgeCount),
			f4(h.MeanDegree()), d(h.MaxDegree()), d(h.Stats.PrunedParents),
			meanStretch, p99Stretch,
		}
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r)
	}
	t.AddNote("stretch is the shortest-path ratio against the dense UDG base on the " +
		"same deployment; larger p adds levels whose long up-links act as shortcuts " +
		"(stretch falls) at the cost of more edges and longer links")
	return t
}

// h02Baselines is the head-to-head the ROADMAP asks for: on each family's
// deployment, compare the dense base graph, the paper's SENS construction
// and the hierarchical neighbor graph on sparsity, stretch and power. All
// six structures and both weight-slab sets come from the engine cache.
func h02Baselines(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("H02",
		"HNG vs SENS vs dense base: sparsity, stretch and power (β=2)",
		"deployment", "structure", "active frac", "edges", "mean deg", "max deg",
		"mean stretch", "mean power stretch", "edge power")

	type entry struct {
		deployment, name string
		g                *graph.CSR
		base             *graph.CSR
		pts              []geom.Point
		candidates       []int32
		activeFrac       float64
		err              string
	}
	var entries []entry

	// UDG family: E14's deployment, base and SENS network.
	dep := hngDeployment(ctx)
	base := ctx.UDG(dep, 1)
	baseMembers, _ := graph.LargestComponent(base.CSR)
	entries = append(entries, entry{
		deployment: "UDG(λ=16)", name: "UDG base", g: base.CSR, base: base.CSR,
		pts: dep.Pts, candidates: baseMembers, activeFrac: 1,
	})
	if net, err := ctx.UDGNet(dep, tiling.DefaultUDGSpec(), scenario.NetOptions{}); err == nil {
		entries = append(entries, entry{
			deployment: "UDG(λ=16)", name: "UDG-SENS", g: net.Graph, base: base.CSR,
			pts: dep.Pts, candidates: net.Members, activeFrac: net.ActiveFraction(),
		})
	} else {
		entries = append(entries, entry{deployment: "UDG(λ=16)", name: "UDG-SENS",
			err: err.Error()})
	}
	if h, err := ctx.HNG(dep, hng.DefaultSpec(), 2010); err == nil {
		entries = append(entries, entry{
			deployment: "UDG(λ=16)", name: "HNG(p=1/8)", g: h.CSR, base: base.CSR,
			pts: dep.Pts, candidates: h.Vertices(), activeFrac: 1,
		})
	} else {
		entries = append(entries, entry{deployment: "UDG(λ=16)", name: "HNG(p=1/8)",
			err: err.Error()})
	}

	// NN family: E10's paper-parameter deployment (λ=1, k=188), its NN base
	// and SENS network, and an HNG over the same points.
	spec := tiling.PaperNNSpec()
	nnDep := nnDeployment(ctx)
	nnBase := ctx.NN(nnDep, spec.K)
	nnMembers, _ := graph.LargestComponent(nnBase.CSR)
	entries = append(entries, entry{
		deployment: "NN(λ=1)", name: "NN base", g: nnBase.CSR, base: nnBase.CSR,
		pts: nnDep.Pts, candidates: nnMembers, activeFrac: 1,
	})
	if net, err := ctx.NNNet(nnDep, spec, scenario.NetOptions{}); err == nil {
		entries = append(entries, entry{
			deployment: "NN(λ=1)", name: "NN-SENS", g: net.Graph, base: nnBase.CSR,
			pts: nnDep.Pts, candidates: net.Members, activeFrac: net.ActiveFraction(),
		})
	} else {
		entries = append(entries, entry{deployment: "NN(λ=1)", name: "NN-SENS",
			err: err.Error()})
	}
	if h, err := ctx.HNG(nnDep, hng.DefaultSpec(), 2011); err == nil {
		entries = append(entries, entry{
			deployment: "NN(λ=1)", name: "HNG(p=1/8)", g: h.CSR, base: nnBase.CSR,
			pts: nnDep.Pts, candidates: h.Vertices(), activeFrac: 1,
		})
	} else {
		entries = append(entries, entry{deployment: "NN(λ=1)", name: "HNG(p=1/8)",
			err: err.Error()})
	}

	pairs := cfg.Trials(40, 10)
	rows := make([][]string, len(entries))
	parallelFor(len(entries), func(i int) {
		e := entries[i]
		if e.err != "" {
			rows[i] = []string{e.deployment, e.name, "ERR: " + e.err, "", "", "", "", "", ""}
			return
		}
		g := rng.Sub(cfg.Seed, uint64(2060+i))
		meanStretch, meanPower := "n/a", "n/a"
		if samples, err := power.MeasureStretchCached(e.g, e.base, e.pts, e.candidates,
			2, pairs, pairs*40, g, ctx.Slabs); err == nil {
			var ds, pws []float64
			for _, s := range samples {
				ds = append(ds, s.DistStretch)
				pws = append(pws, s.PowerStretch)
			}
			meanStretch = f4(stats.Mean(ds))
			meanPower = f4(stats.Mean(pws))
		}
		rows[i] = []string{
			e.deployment, e.name, f4(e.activeFrac), d(e.g.EdgeCount),
			f4(e.g.MeanDegree()), d(e.g.MaxDegree()), meanStretch, meanPower,
			f4(power.TotalEdgePower(e.g, e.pts, 2)),
		}
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r)
	}
	t.AddNote("HNG keeps every node active at bounded expected degree and needs no " +
		"density threshold, where SENS buys its sparsity by deactivating most " +
		"nodes above λs; HNG's up-links span level gaps, so its edge-power total " +
		"carries a few long hops the unit-disk structures cannot express")
	return t
}

// h03Churn measures churn resilience: nodes fail at rate q; the standing
// HNG fragments (how badly?), and restoring a healthy structure on the
// survivors can go two ways. "rebuild" reruns the construction from scratch
// (fresh promotion draws, survivor indices); "repair" feeds the same deaths
// as one round through the incremental maintainer (hng.Kinetic) and
// cross-checks the result edge-for-edge against a same-levels from-scratch
// Rebuild — the equivalence gate, surfaced in the golden table. The
// deployment is shared through the cache (the failure draws use their own
// substreams, keyed by q so both methods see the same victims).
func h03Churn(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("H03",
		"HNG node churn: no-rebuild degradation, reconstruction and incremental repair",
		"fail rate q", "method", "survivors", "no-rebuild frac", "edges",
		"mean deg", "max deg", "connected", "matches rebuild")
	dep := hngDeployment(ctx)
	h, err := ctx.HNG(dep, hng.DefaultSpec(), 2010)
	if err != nil {
		t.AddRow("ERR: " + err.Error())
		return t
	}
	qs := []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	methods := []string{"rebuild", "repair"}
	rows := make([][]string, len(qs)*len(methods))
	parallelFor(len(rows), func(row int) {
		qi, method := row/len(methods), methods[row%len(methods)]
		g := rng.Sub(cfg.Seed, uint64(2070+qi))
		alive := make([]bool, len(dep.Pts))
		var survivors []geom.Point
		for j := range dep.Pts {
			if g.Float64() >= qs[qi] {
				alive[j] = true
				survivors = append(survivors, dep.Pts[j])
			}
		}
		noRebuild := 0.0
		if len(survivors) > 0 {
			noRebuild = float64(graph.LargestComponentWhere(h.CSR, nil,
				func(u int32) bool { return alive[u] })) / float64(len(survivors))
		}
		prefix := []string{f4(qs[qi]), method, d(len(survivors)), f4(noRebuild)}
		if method == "rebuild" {
			rb, err := hng.Build(survivors, hng.DefaultSpec(), rng.Sub(cfg.Seed, uint64(2080+qi)))
			if err != nil {
				rows[row] = append(prefix, "ERR: "+err.Error(), "", "", "", "")
				return
			}
			members, _ := graph.LargestComponent(rb.CSR)
			connected := "no"
			if len(members) == len(survivors) || len(survivors) <= 1 {
				connected = "yes"
			}
			rows[row] = append(prefix, d(rb.EdgeCount), f4(rb.MeanDegree()),
				d(rb.MaxDegree()), connected, "—")
			return
		}
		var dead []int32
		for j := range alive {
			if !alive[j] {
				dead = append(dead, int32(j))
			}
		}
		k := hng.NewKinetic(h, dep.Box)
		k.Round(dead, nil)
		got := k.Materialize()
		matches := "yes"
		if ref, err := hng.Rebuild(k.Positions(), k.Levels(), alive, h.Spec); err != nil {
			matches = "ERR: " + err.Error()
		} else if diff := graph.FirstDiff(got, ref.CSR); diff != "" {
			matches = "DIFF: " + diff
		}
		lcc := graph.LargestComponentWhere(got, nil,
			func(u int32) bool { return alive[u] })
		connected := "no"
		if lcc == len(survivors) || len(survivors) <= 1 {
			connected = "yes"
		}
		meanDeg := 0.0
		if len(survivors) > 0 {
			meanDeg = 2 * float64(got.EdgeCount) / float64(len(survivors))
		}
		rows[row] = append(prefix, d(got.EdgeCount), f4(meanDeg),
			d(got.MaxDegree()), connected, matches)
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r)
	}
	t.AddNote("the standing hierarchy fragments fast — every up-link is a cut edge " +
		"below the top levels — but both restorations are connected at EVERY q: " +
		"unlike UDG-SENS (E17), whose rebuild health crosses at λ·(1−q) ≈ λs, the " +
		"HNG construction has no percolation threshold to clear. The repair rows " +
		"keep the original promotion draws (levels are sticky), so their graphs " +
		"differ from the re-rolled rebuild rows but match a same-levels rebuild " +
		"exactly — the maintained-structure equivalence gate, in the golden")
	return t
}
