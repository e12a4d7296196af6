package experiments

import (
	"math"
	"math/rand/v2"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/pointprocess"
	"repro/internal/power"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/tiling"
)

func registerE04E07() {
	scenario.Register(scenario.Scenario{
		ID: "E04", Name: "udg-claim",
		Title: "UDG-SENS tile goodness and Claim 2.1 path bound",
		Tags:  []string{"sens", "udg", "geometry"},
		Grid: []scenario.Param{
			grid("geometry", "literal", "repaired", "relaxed"),
		},
		Needs: []string{"deployment", "udg-base", "udg-sens"},
		Run:   e04UDGClaim,
	})
	scenario.Register(scenario.Scenario{
		ID: "E05", Name: "lambda-s",
		Title: "Theorem 2.2: λs threshold for UDG-SENS vs direct λc estimate",
		Tags:  []string{"threshold", "udg", "montecarlo"},
		Grid: []scenario.Param{
			grid("λ", "6", "8", "10", "11", "11.7", "12", "13", "14", "16"),
		},
		Run: e05LambdaS,
	})
	scenario.Register(scenario.Scenario{
		ID: "E06", Name: "nn-claim",
		Title: "NN-SENS tile goodness and Claim 2.3 path bound",
		Tags:  []string{"sens", "nn", "geometry"},
		Needs: []string{"deployment", "nn-base", "nn-sens"},
		Run:   e06NNClaim,
	})
	scenario.Register(scenario.Scenario{
		ID: "E07", Name: "ks-threshold",
		Title: "Theorem 2.4: ks threshold for NN-SENS vs direct kc estimate",
		Tags:  []string{"threshold", "nn", "montecarlo"},
		Grid: []scenario.Param{
			grid("k", "80", "120", "150", "170", "188", "210", "240"),
			grid("a", "0.75", "0.80", "0.85", "0.893", "0.95", "1.0", "1.05"),
		},
		Run: e07KS,
	})
}

// e04UDGClaim builds UDG-SENS in all three geometry modes and verifies the
// Figure 4 / Claim 2.1 structure: literal tiles are never good (the paper's
// defect), repaired tiles connect adjacent representatives in ≤ 3 unit hops,
// and relaxed-mode handshakes fail at a measurable rate.
func e04UDGClaim(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("E04",
		"UDG-SENS goodness and Claim 2.1 (adjacent reps ≤ 3 hops of length ≤ 1)",
		"geometry", "λ", "good tiles", "adj good pairs",
		"paths ok", "max hops", "max cu", "handshake fails")
	side := cfg.Size(30, 12)
	box := geom.Box(side, side)

	type modeRun struct {
		name   string
		spec   tiling.UDGSpec
		lambda float64
	}
	runs := []modeRun{
		{"literal (paper §2.1)", tiling.PaperUDGSpec(), 16},
		{"repaired (default)", tiling.DefaultUDGSpec(), 16},
		{"relaxed (Fig. 7 as-is)", tiling.RelaxedUDGSpec(), 4},
	}
	for i, r := range runs {
		dep := ctx.Deploy(uint64(300+i), box, r.lambda)
		n, err := ctx.UDGNet(dep, r.spec, scenario.NetOptions{})
		if err != nil {
			t.AddRow(r.name, f2(r.lambda), "ERR: "+err.Error(), "", "", "", "", "")
			continue
		}
		pairs := n.AdjacentGoodPairs()
		ok, maxHops := 0, 0
		var reps []power.Pair
		for _, pr := range pairs {
			hops, within := n.RepPathWithinBound(pr[0], pr[1], r.spec.Radius)
			if hops >= 0 && within && hops <= 3 {
				ok++
			}
			if hops > maxHops {
				maxHops = hops
			}
			ra, rb := n.Tile(pr[0]).Rep, n.Tile(pr[1]).Rep
			if ra >= 0 && rb >= 0 {
				reps = append(reps, power.Pair{U: ra, V: rb})
			}
		}
		maxCu := maxRepStretch(n.Graph, n.Pts, reps)
		t.AddRow(r.name, f2(r.lambda), d(n.Stats.GoodTiles), d(len(pairs)),
			d(ok)+"/"+d(len(pairs)), d(maxHops), f4(maxCu), d(n.Stats.HandshakeFailures))
	}
	t.AddNote("the literal geometry's relay regions are empty (DESIGN.md §2), so it " +
		"can never produce a good tile; the repaired geometry satisfies Claim 2.1 " +
		"for every adjacent good pair")
	return t
}

// e05LambdaS reproduces Theorem 2.2's threshold computation for the
// feasible geometry and compares with a direct estimate of the true λc for
// UDG(2, λ): good-tile probability versus λ (analytic + Monte Carlo), the
// resulting λs, and a crossing-based λc estimate.
func e05LambdaS(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("E05",
		"Theorem 2.2: λs for UDG-SENS (repaired geometry) vs direct λc",
		"λ", "P(good) analytic", "P(good) MC", "95% CI")
	spec := tiling.DefaultUDGSpec()
	lambdas := []float64{6, 8, 10, 11, 11.7, 12, 13, 14, 16}
	results := make([]stats.Proportion, len(lambdas))
	trials := cfg.Trials(3000, 300)
	gm := spec.Compile()
	parallelFor(len(lambdas), func(i int) {
		g := rng.Sub(cfg.Seed, uint64(400+i))
		results[i] = tiling.MonteCarloGoodProbability(spec.Side, lambdas[i], gm.TileGood, trials, g)
	})
	for i, l := range lambdas {
		t.AddRow(f4(l), f4(spec.GoodProbability(l)), f4(results[i].P),
			"["+f4(results[i].Low95)+", "+f4(results[i].High95)+"]")
	}
	lambdaS := spec.LambdaS(lattice.SitePcReference)
	t.AddNote("λs(repaired) = %s: smallest λ with P(good) > p_c = %.4f "+
		"(paper claims 1.568 for the literal geometry, which is infeasible)",
		f4(lambdaS), lattice.SitePcReference)

	// Direct λc estimate for UDG(2, λ): left-right crossing of the giant
	// component on an L×L box.
	L := cfg.Size(28, 14)
	crossTrials := cfg.Trials(60, 12)
	cross := func(lam float64) float64 {
		k := 0
		results := make([]bool, crossTrials)
		parallelFor(crossTrials, func(i int) {
			g := rng.Sub(cfg.Seed, uint64(500)+uint64(i)*1000+uint64(lam*64))
			results[i] = udgCrosses(geom.Box(L, L), lam, g)
		})
		for _, r := range results {
			if r {
				k++
			}
		}
		return float64(k) / float64(crossTrials)
	}
	lc, lcOK := stats.MonotoneThreshold(cross, 0.8, 2.4, 0.5, 0.02, 14)
	lcQual := ""
	if !lcOK {
		// Crossing probability did not straddle 1/2 over [0.8, 2.4]: lc is the
		// nearer endpoint, i.e. only a bound on λc.
		lcQual = " (bracket endpoint)"
	}
	t.AddNote("direct λc(UDG) estimate on %sx%s box: ≈ %s%s — consistent with the "+
		"paper's claimed bound λc < 1.568 (their number is below Hall's 3.372 and "+
		"above the truth ≈ 1.44), while the feasible construction only certifies "+
		"λc ≤ %s", f4(L), f4(L), f4(lc), lcQual, f4(lambdaS))
	return t
}

// udgCrosses reports whether a UDG(2, λ) realization on box has a component
// touching both the left and right margin strips (width 1).
func udgCrosses(box geom.Rect, lambda float64, g *rand.Rand) bool {
	pts := pointprocess.Poisson(box, lambda, g)
	if len(pts) == 0 {
		return false
	}
	udg := rgg.UDG(pts, 1)
	labels, _ := graph.Components(udg.CSR)
	leftHit := map[int32]bool{}
	for i, p := range pts {
		if p.X <= box.Min.X+1 {
			leftHit[labels[i]] = true
		}
	}
	for i, p := range pts {
		if p.X >= box.Max.X-1 && leftHit[labels[i]] {
			return true
		}
	}
	return false
}

// e06NNClaim builds NN-SENS at the paper's parameters and verifies the
// Figure 6 / Claim 2.3 structure: every SENS edge exists in NN(2, k)
// (validated during construction), adjacent representatives connect within
// 5 hops, and the stretch constant ck is bounded.
func e06NNClaim(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("E06", "NN-SENS goodness and Claim 2.3 (paper k=188, a=0.893)",
		"tiles", "good", "good frac", "adj pairs", "paths ≤5 hops",
		"max ck", "SENS edges in NN base")
	spec := tiling.PaperNNSpec()
	tilesPerSide := int(cfg.Size(6, 4))
	side := float64(tilesPerSide) * spec.TileSide()
	box := geom.Box(side, side)
	dep := ctx.Deploy(600, box, 1.0)
	n, err := ctx.NNNet(dep, spec, scenario.NetOptions{})
	if err != nil {
		t.AddRow("ERR: " + err.Error())
		return t
	}
	pairs := n.AdjacentGoodPairs()
	ok := 0
	reps := make([]power.Pair, len(pairs))
	for i, pr := range pairs {
		hops, _ := n.RepPathWithinBound(pr[0], pr[1], math.Inf(1))
		if hops >= 0 && hops <= 5 {
			ok++
		}
		reps[i] = power.Pair{U: n.Tile(pr[0]).Rep, V: n.Tile(pr[1]).Rep}
	}
	maxCk := maxRepStretch(n.Graph, n.Pts, reps)
	validated := "yes (0 missing)"
	if n.Stats.MissingBaseEdges > 0 {
		validated = d(n.Stats.MissingBaseEdges) + " missing"
	}
	t.AddRow(d(n.Stats.Tiles), d(n.Stats.GoodTiles), f4(n.GoodFraction()),
		d(len(pairs)), d(ok)+"/"+d(len(pairs)), f4(maxCk), validated)
	t.AddNote("construction fails loudly if any SENS edge is absent from NN(2, 188); " +
		"a clean build is the executable proof of Claim 2.3 on this realization")
	return t
}

// maxRepStretch returns the largest shortest-path length over Euclidean
// distance among the representative pairs connected in g: the stretch
// constant of Claim 2.1 (cu) or Claim 2.3 (ck) on one realization.
func maxRepStretch(g *graph.CSR, pts []geom.Point, reps []power.Pair) float64 {
	worst := 0.0
	for _, s := range power.MeasurePairs(g, nil, pts, reps, power.BatchSpec{}) {
		if s.Euclid > 0 && !math.IsInf(s.SubLen, 1) {
			worst = max(worst, s.SubLen/s.Euclid)
		}
	}
	return worst
}

// e07KS reproduces Theorem 2.4's threshold search: for each k, the tile
// scale a is tuned to maximize the good-tile probability, and ks is the
// smallest k whose optimum exceeds p_c. A direct kc estimate for NN(2, k)
// is reported for contrast.
func e07KS(ctx *scenario.Ctx) *Table {
	cfg := ctx.Cfg
	t := scenario.NewTable("E07",
		"Theorem 2.4: P(good) vs k with tuned a (λ=1); paper: ks=188, a=0.893",
		"k", "best a", "P(good) at best a", "95% CI", "exceeds p_c?")
	ks := []int{80, 120, 150, 170, 188, 210, 240}
	aGrid := []float64{0.75, 0.80, 0.85, 0.893, 0.95, 1.0, 1.05}
	scanTrials := cfg.Trials(250, 60)
	refineTrials := cfg.Trials(1500, 200)

	type kResult struct {
		bestA float64
		prop  stats.Proportion
	}
	results := make([]kResult, len(ks))
	parallelFor(len(ks), func(i int) {
		k := ks[i]
		// Scan pass ranks the grid; the top two candidates are re-measured
		// at the refine budget so scan noise cannot settle on a bad a.
		type cand struct {
			a float64
			p float64
		}
		best, second := cand{p: -1}, cand{p: -1}
		for ai, a := range aGrid {
			spec := tiling.NNSpec{A: a, K: k}
			gm := spec.Compile()
			g := rng.Sub(cfg.Seed, uint64(700+i*100+ai))
			p := tiling.MonteCarloGoodProbability(spec.TileSide(), 1.0, gm.TileGood, scanTrials, g).P
			switch {
			case p > best.p:
				second, best = best, cand{a, p}
			case p > second.p:
				second = cand{a, p}
			}
		}
		for ci, a := range []float64{best.a, second.a} {
			if a <= 0 {
				continue
			}
			spec := tiling.NNSpec{A: a, K: k}
			gm := spec.Compile()
			g := rng.Sub(cfg.Seed, uint64(780+i*10+ci))
			p := tiling.MonteCarloGoodProbability(spec.TileSide(), 1.0, gm.TileGood, refineTrials, g)
			if ci == 0 || p.P > results[i].prop.P {
				results[i] = kResult{bestA: a, prop: p}
			}
		}
	})
	measuredKs := -1
	for i, k := range ks {
		r := results[i]
		exceeds := "no"
		if r.prop.Low95 > lattice.SitePcReference {
			exceeds = "yes"
			if measuredKs < 0 {
				measuredKs = k
			}
		}
		t.AddRow(d(k), f4(r.bestA), f4(r.prop.P),
			"["+f4(r.prop.Low95)+", "+f4(r.prop.High95)+"]", exceeds)
	}
	if measuredKs > 0 {
		t.AddNote("measured ks ≈ %d (smallest k on the grid whose CI clears p_c); "+
			"paper's Theorem 2.4 claims 188", measuredKs)
	} else {
		t.AddNote("no k on the grid cleared p_c at this trial budget")
	}

	// The paper's exact operating point, at a larger budget.
	paperSpec := tiling.PaperNNSpec()
	paperGM := paperSpec.Compile()
	gp := rng.Sub(cfg.Seed, 798)
	paperP := tiling.MonteCarloGoodProbability(paperSpec.TileSide(), 1.0,
		paperGM.TileGood, cfg.Trials(4000, 400), gp)
	verdict := "below"
	if paperP.P > lattice.SitePcReference {
		verdict = "above"
	}
	t.AddNote("paper's exact (k=188, a=0.893): P(good) = %s [%s, %s] — %s "+
		"p_c = %.4f", f4(paperP.P), f4(paperP.Low95), f4(paperP.High95), verdict,
		lattice.SitePcReference)

	// Direct kc estimate: smallest k whose NN graph spans a box.
	g := rng.Sub(cfg.Seed, 799)
	L := cfg.Size(30, 15)
	box := geom.Box(L, L)
	kTrials := cfg.Trials(30, 8)
	for k := 1; k <= 5; k++ {
		crossed := 0
		for tr := 0; tr < kTrials; tr++ {
			pts := pointprocess.Poisson(box, 1.0, g)
			if len(pts) == 0 {
				continue
			}
			nn := rgg.NN(pts, k)
			if geomCrosses(nn, box) {
				crossed++
			}
		}
		t.AddNote("direct: NN(2, %d) box-crossing fraction = %s", k,
			f4(float64(crossed)/float64(kTrials)))
	}
	return t
}

// geomCrosses reports whether a geometric graph has a component touching
// both vertical margin strips of width 1.
func geomCrosses(g *rgg.Geometric, box geom.Rect) bool {
	labels, _ := graph.Components(g.CSR)
	leftHit := map[int32]bool{}
	for i, p := range g.Pos {
		if p.X <= box.Min.X+1 {
			leftHit[labels[i]] = true
		}
	}
	for i, p := range g.Pos {
		if p.X >= box.Max.X-1 && leftHit[labels[i]] {
			return true
		}
	}
	return false
}
