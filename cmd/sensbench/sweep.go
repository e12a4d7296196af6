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
	"repro/internal/rng"
	"repro/internal/tiling"
)

// The sens-sweep workload is the paper's λ_s Monte-Carlo pattern (E04,
// E05): many independent UDG-SENS builds over ~10⁴-point deployments. The
// SENS tile kernel (tiling, classify and elect, wire, CSR, largest
// component) does most of each trial's work.
const (
	sweepSide       = 25.0 // box side at -size 1: λ·side² ≈ 10⁴ points
	sweepLambda     = 16.0
	sweepWarmup     = 50  // trials per set-up round
	sweepCheckEvery = 100 // every this many timed trials are checked
	sweepTail       = 0.99
)

// trialSummary is what one trial produced, for the digest and the checks.
type trialSummary struct {
	trial                        int
	points, edges, members, good int
	messages, maxDegree          int
}

func summarize(i int, n *core.Network) trialSummary {
	return trialSummary{
		trial: i, points: len(n.Pts), edges: n.Graph.EdgeCount, members: len(n.Members),
		good: n.Stats.GoodTiles, messages: n.Stats.ElectionMessages, maxDegree: n.MaxDegree(),
	}
}

func runSweep(b *bench) error {
	side := sweepSide * b.size
	box := geom.Box(side, side)
	spec := tiling.DefaultUDGSpec()
	deploy := func(i int) []geom.Point {
		return pointprocess.Poisson(box, sweepLambda, rng.Sub(rng.Seed(b.seed), uint64(i)))
	}
	build := func(pts []geom.Point) (*core.Network, error) {
		return core.BuildUDG(pts, box, spec, core.Options{SkipBase: true})
	}

	// Set-up: the untimed warm-up block of the sweep, run over the same
	// inputs in each round. The first round's networks feed the digest.
	var warm []*core.Network
	if err := b.setup(func(r int) error {
		for i := 0; i < sweepWarmup; i++ {
			n, err := build(deploy(i))
			if err != nil {
				return fmt.Errorf("warm-up trial %d: %w", i, err)
			}
			if r == 0 {
				warm = append(warm, n)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var counts trialSummary
	for i, n := range warm {
		s := summarize(i, n)
		fmt.Fprintf(b.dig, "%+v %v\n", s, n.Members)
		b.check(s.maxDegree <= 4, "warm-up trial %d: max degree %d > 4", i, s.maxDegree)
		counts.members += s.members
		counts.good += s.good
		counts.edges += s.edges
		counts.messages += s.messages
	}
	warm = nil

	var ot opTimes
	var done []trialSummary
	var last *core.Network
	deadline := time.Now().Add(b.seconds)
	for i := sweepWarmup; time.Now().Before(deadline); i++ {
		var pts []geom.Point
		var n *core.Network
		_, err := ot.measure(b, i, func(tr *tracer) (err error) {
			root := tr.begin("trial", -1, int64(i))
			s := tr.begin("pointprocess.Poisson", root, int64(i))
			pts = deploy(i)
			tr.end(s)
			s = tr.begin("core.BuildUDG", root, int64(i))
			n, err = build(pts)
			tr.end(s)
			tr.end(root)
			return err
		})
		b.attempted++
		if err != nil {
			b.fail("trial %d: %v", i, err)
			continue
		}
		done = append(done, trialSummary{trial: i, edges: n.Graph.EdgeCount, members: len(n.Members)})
		last = n
		if tr := b.traced(i); tr != nil {
			sweepProbes(tr, int64(i), box, spec, pts, n)
		}
	}
	ot.report(b, sweepTail)

	// Checks, after timing: every sweepCheckEvery-th trial is rebuilt
	// serially and by the sharded path, which must agree with each other
	// and with what the timed trial produced.
	for _, d := range done {
		if d.trial%sweepCheckEvery != 0 {
			continue
		}
		pts := deploy(d.trial)
		n, err := build(pts)
		if err != nil {
			b.fail("check trial %d: %v", d.trial, err)
			continue
		}
		sh, err := core.BuildUDGSharded(pts, box, spec, core.Options{SkipBase: true})
		if err != nil {
			b.fail("check trial %d sharded: %v", d.trial, err)
			continue
		}
		b.check(graph.Equal(n.Graph, sh.Graph), "trial %d: serial and sharded graphs differ: %s", d.trial, graph.FirstDiff(n.Graph, sh.Graph))
		b.check(slices.Equal(n.Members, sh.Members), "trial %d: serial and sharded members differ", d.trial)
		b.check(n.Graph.EdgeCount == d.edges && len(n.Members) == d.members, "trial %d: rebuild differs from the timed build", d.trial)
		b.check(n.MaxDegree() <= 4, "trial %d: max degree %d > 4", d.trial, n.MaxDegree())
	}

	if b.tr != nil {
		for name, span := range map[string]string{
			"pointprocess.poisson_ms":    "pointprocess.Poisson",
			"core.build_udg_ms":          "core.BuildUDG",
			"core.build_udg_sharded_ms":  "core.BuildUDGSharded",
			"tiling.assign_map_ms":       "tiling.AssignTiles",
			"tiling.assign_csr_ms":       "tiling.AssignTilesCSR",
			"graph.largest_component_ms": "graph.LargestComponent",
		} {
			b.metrics[name] = median(b.tr.durations(span))
		}
		b.metrics["core.members"] = float64(counts.members)
		b.metrics["core.good_tiles"] = float64(counts.good)
		b.metrics["core.edges"] = float64(counts.edges)
		b.metrics["core.election_messages"] = float64(counts.messages)
	}
	// The per-trial records are dead here, so the heap holds the last
	// network and not bookkeeping that grows with the trial count.
	b.setHeap()
	runtime.KeepAlive(last)
	return nil
}

// sweepProbes times, on one trial's inputs, the sharded build and the
// layers inside the serial build that the trial itself cannot separate.
func sweepProbes(tr *tracer, req int64, box geom.Rect, spec tiling.UDGSpec, pts []geom.Point, n *core.Network) {
	root := tr.begin("probe", -1, req)
	s := tr.begin("core.BuildUDGSharded", root, req)
	_, _ = core.BuildUDGSharded(pts, box, spec, core.Options{SkipBase: true}) // checked after timing
	tr.end(s)
	s = tr.begin("tiling.AssignTiles", root, req)
	tiling.AssignTiles(n.Map, pts)
	tr.end(s)
	s = tr.begin("tiling.AssignTilesCSR", root, req)
	tiling.AssignTilesCSR(n.Map, pts)
	tr.end(s)
	s = tr.begin("graph.LargestComponent", root, req)
	graph.LargestComponent(n.Graph)
	tr.end(s)
	tr.end(root)
}
