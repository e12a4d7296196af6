package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/tiling"
)

// The build-1m workload is the scale tier: one 10⁶-point deployment built
// end to end. The base UDG (rgg) does most of the work and the SENS kernel
// little, the opposite of sens-sweep, and the build reaches the tier's
// memory wall.
const (
	buildSide    = 250.0 // box side at -size 1: λ·side² ≈ 10⁶ points
	buildGenSide = 25.0  // generation tile side of the streamed deployment
	buildLambda  = 16.0
	buildMinRuns = 3    // timed builds made even when they overrun -seconds
	buildTail    = 0.75 // too few builds for a higher percentile
)

// buildSummary is what one build produced; every build of a run must
// produce the same.
type buildSummary struct{ points, baseEdges, edges, members, good int }

func runBuild1M(b *bench) error {
	side := buildSide * b.size
	gen := min(buildGenSide, side)
	box := geom.Box(side, side)
	spec := tiling.DefaultUDGSpec()
	deploy := func(tr *tracer, root int, req int64) []geom.Point {
		s := tr.begin("pointprocess.PoissonSoA", root, req)
		soa := pointprocess.PoissonSoA(box, buildLambda, rng.Seed(b.seed), gen)
		tr.end(s)
		s = tr.begin("geom.SoA.Points", root, req)
		pts := soa.Points(nil)
		tr.end(s)
		return pts
	}
	build := func(tr *tracer, req int64) (*core.Network, error) {
		root := tr.begin("build", -1, req)
		defer tr.end(root)
		pts := deploy(tr, root, req)
		s := tr.begin("rgg.UDGGrid", root, req)
		g := rgg.UDGGrid(pts, spec.Radius)
		tr.end(s)
		s = tr.begin("core.BuildUDGSharded", root, req)
		defer tr.end(s)
		return core.BuildUDGSharded(pts, box, spec, core.Options{Base: g})
	}
	summary := func(n *core.Network) buildSummary {
		return buildSummary{len(n.Pts), n.Base.EdgeCount, n.Graph.EdgeCount, len(n.Members), n.Stats.GoodTiles}
	}

	// Set-up: generating the deployment, the input of every build.
	if err := b.setup(func(int) error { deploy(nil, -1, 0); return nil }); err != nil {
		return err
	}

	// One untimed cold build fills the heap; its output is the reference.
	first, err := build(nil, 0)
	if err != nil {
		return fmt.Errorf("cold build: %w", err)
	}
	want := summary(first)
	fmt.Fprintf(b.dig, "%+v\n", want)
	checkNetwork(b, first, spec.Radius)
	first = nil

	var ot opTimes
	var last *core.Network
	var lastDur time.Duration
	deadline := time.Now().Add(b.seconds)
	for i := 1; i <= buildMinRuns || time.Now().Add(lastDur).Before(deadline); i++ {
		last = nil // let the previous build go before the next one allocates
		var n *core.Network
		var err error
		lastDur, err = ot.measure(b, i, func(tr *tracer) (err error) {
			n, err = build(tr, int64(i))
			return err
		})
		b.attempted++
		if err != nil {
			b.fail("build %d: %v", i, err)
			continue
		}
		b.check(summary(n) == want, "build %d: %+v differs from the cold build %+v", i, summary(n), want)
		last = n
	}
	ot.report(b, buildTail)
	if last != nil {
		checkNetwork(b, last, spec.Radius)
		serial, err := core.BuildUDG(last.Pts, box, spec, core.Options{Base: last.Base})
		b.check(err == nil && graph.Equal(serial.Graph, last.Graph) && slices.Equal(serial.Members, last.Members),
			"sharded build differs from the serial build (%v)", err)
	}
	b.setHeap()
	runtime.KeepAlive(last)

	if b.tr != nil {
		for name, span := range map[string]string{
			"pointprocess.poisson_soa_s": "pointprocess.PoissonSoA",
			"geom.soa_points_s":          "geom.SoA.Points",
			"rgg.udg_grid_s":             "rgg.UDGGrid",
			"core.build_sharded_s":       "core.BuildUDGSharded",
		} {
			b.metrics[name] = median(b.tr.durations(span)) / 1e3
		}
		b.metrics["rgg.edges"] = float64(want.baseEdges)
		b.metrics["rgg.edges_per_s"] = float64(want.baseEdges) / b.metrics["rgg.udg_grid_s"]
	}
	return nil
}

// checkNetwork checks the paper's structural claims on a built network:
// every SENS edge is a base edge no longer than r, no degree exceeds 4,
// and the members are exactly the largest component.
func checkNetwork(b *bench, n *core.Network, r float64) {
	g := n.Graph
	bad := 0
	for u := int32(0); int(u) < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && (!n.Base.HasEdge(u, v) || n.Pts[u].Dist(n.Pts[v]) > r) {
				bad++
			}
		}
	}
	b.check(bad == 0, "%d SENS edges are not base edges within r=%v", bad, r)
	b.check(g.MaxDegree() <= 4, "max degree %d > 4", g.MaxDegree())
	labels, sizes := graph.Components(g)
	largest := 0
	for _, s := range sizes {
		largest = max(largest, s)
	}
	if len(n.Members) == 0 {
		b.check(largest <= 1, "no members, but a component of %d vertices", largest)
		return
	}
	l := labels[n.Members[0]]
	same := true
	for _, v := range n.Members {
		same = same && labels[v] == l
	}
	b.check(same && sizes[l] == len(n.Members) && len(n.Members) == largest,
		"members (%d) are not the largest component (%d)", len(n.Members), largest)
}
