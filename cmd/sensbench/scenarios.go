package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	_ "repro/internal/experiments" // registers the scenario suite
	"repro/internal/rng"
	"repro/internal/scenario"
)

// The scenarios workload runs the registered suite as a paper reproducer
// does, serially through fresh engine caches. The mobility (M) and fault
// (R) scenarios take most of a pass; no other workload reaches those
// layers.
//
// The suite always runs the golden configuration: its cost depends on the
// configuration seed far beyond any bound (a pass took 3.8 s to 24 s over
// seeds 11 to 20), so the workload seed instead permutes the order in
// which the scenarios run. No scenario's output depends on that order,
// and every pass is checked against the goldens.
const (
	scenarioScale     = 0.15 // the golden tables' scale
	scenarioMinPasses = 2    // passes made even when they overrun -seconds
	scenarioTail      = 0.75 // too few passes for a higher percentile
)

// scenarioLayers are the scenarios reported one by one in a traced run:
// the ones that take most of a pass.
var scenarioLayers = []string{"M03", "M02", "R02", "R01", "E14", "E11"}

func runScenarios(b *bench) error {
	cfg := scenario.Config{Seed: defaultSeed, Scale: scenarioScale * b.size}
	patterns := []string{"all"}
	if b.only != "" {
		patterns = strings.Split(b.only, ",")
	}
	suite, err := scenario.Match(patterns)
	if err != nil {
		return err
	}

	// Set-up: the paper-claim (E) scenarios through a fresh engine, which
	// fills the lazily built state every later scenario finds ready.
	var warm []scenario.Scenario
	for _, sc := range suite {
		if strings.HasPrefix(sc.ID, "E") {
			warm = append(warm, sc)
		}
	}
	if len(warm) == 0 {
		warm = suite[:1]
	}
	if err := b.setup(func(int) error {
		_, err := scenario.NewEngine(nil).Run(cfg, warm)
		return err
	}); err != nil {
		return err
	}

	// Passes: each scenario runs alone through the pass's engine, so its
	// span is its own time. Tables are kept in suite order.
	order := rng.Sub(rng.Seed(b.seed), 0).Perm(len(suite))
	var ot opTimes
	var passes [][]*scenario.Table
	var last *scenario.Engine
	var lastDur time.Duration
	deadline := time.Now().Add(b.seconds)
	for p := 0; p < scenarioMinPasses || time.Now().Add(lastDur).Before(deadline); p++ {
		eng := scenario.NewEngine(nil)
		tables := make([]*scenario.Table, len(suite))
		lastDur, _ = ot.measure(b, p, func(tr *tracer) error {
			root := tr.begin("pass", -1, int64(p))
			for _, i := range order {
				sc := suite[i]
				s := tr.begin("scenario."+sc.ID, root, int64(p))
				ts, err := eng.Run(cfg, []scenario.Scenario{sc})
				tr.end(s)
				if err != nil {
					b.fail("pass %d: %s: %v", p, sc.ID, err)
					continue
				}
				tables[i] = ts[0]
			}
			tr.end(root)
			return nil // a failed scenario is a failed check, not a lost pass
		})
		b.attempted += len(suite)
		passes = append(passes, tables)
		last = eng
	}
	ot.report(b, scenarioTail)

	// Checks: every pass prints the same tables, and at the golden settings
	// the tables the checked-in goldens pin.
	for i, sc := range suite {
		first := passes[0][i]
		if first == nil {
			continue
		}
		fmt.Fprint(b.dig, first.String())
		for p := 1; p < len(passes); p++ {
			t := passes[p][i]
			b.check(t == nil || t.String() == first.String(), "%s: pass %d table differs from pass 0", sc.ID, p)
		}
		if b.size == 1 {
			want, err := os.ReadFile(filepath.Join(b.goldenDir, "golden_"+sc.ID+".txt"))
			b.check(err == nil && string(want) == first.String(), "%s: table differs from its golden (%v)", sc.ID, err)
		}
	}

	if b.tr != nil {
		for _, id := range scenarioLayers {
			if d := b.tr.durations("scenario." + id); len(d) > 0 {
				b.metrics["scenario."+id+"_s"] = median(d) / 1e3
			}
		}
		families := make(map[string]map[int64]float64) // family → pass → ms
		for _, s := range b.tr.spans {
			if id, ok := strings.CutPrefix(s.Name, "scenario."); ok {
				f := id[:1]
				if families[f] == nil {
					families[f] = make(map[int64]float64)
				}
				families[f][s.Req] += float64(s.End-s.Start) / 1e6
			}
		}
		for f, byPass := range families {
			var sums []float64
			for _, ms := range byPass {
				sums = append(sums, ms)
			}
			b.metrics["scenario.family_"+f+"_s"] = median(sums) / 1e3
		}
		st := last.Cache.Stats()
		hits, misses := last.Slabs.Stats()
		b.metrics["scenario.cache_hits"] = float64(st.Hits)
		b.metrics["scenario.cache_misses"] = float64(st.Misses)
		b.metrics["power.slab_hits"] = float64(hits)
		b.metrics["power.slab_misses"] = float64(misses)
	}
	// The passes' tables are dead here: the heap holds the last pass's
	// engine caches, whatever the number of passes.
	b.setHeap()
	runtime.KeepAlive(last)
	return nil
}
