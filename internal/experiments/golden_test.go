package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// goldenCfg matches the configuration the checked-in testdata/golden_*.txt
// files were generated with — by the pre-refactor drivers (hand-rolled
// loops, no cache, no engine) at the default CLI seed.
var goldenCfg = Config{Seed: 2026, Scale: 0.15}

func readGolden(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden_"+id+".txt"))
	if err != nil {
		t.Fatalf("missing golden for %s: %v", id, err)
	}
	return string(b)
}

// TestScenarioTablesMatchPreRefactorGolden is the refactor's equivalence
// gate: every registered scenario, executed through the engine with shared
// caches and concurrent scenario runs, must reproduce the pre-refactor
// table byte-for-byte at the fixed seed — at GOMAXPROCS 8 (concurrent
// scenarios + parallel inner loops + cache sharing) and GOMAXPROCS 1
// (fully serial).
func TestScenarioTablesMatchPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		// Regeneration mode: write testdata/golden_<ID>.txt for every
		// registered scenario and fail, so a forgotten env var can't turn the
		// gate green vacuously. Existing goldens must come out byte-identical
		// (they are pinned by normal runs); only genuinely new scenarios gain
		// files.
		eng := scenario.NewEngine(nil)
		tables, err := eng.Run(goldenCfg, scenario.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tables {
			p := filepath.Join("testdata", "golden_"+tab.ID+".txt")
			if err := os.WriteFile(p, []byte(tab.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Fatalf("UPDATE_GOLDEN: regenerated %d golden tables; rerun without the env var", len(tables))
	}
	for _, gmp := range []int{8, 1} {
		prev := runtime.GOMAXPROCS(gmp)
		eng := scenario.NewEngine(nil)
		if gmp > 1 {
			eng.Jobs = 4 // exercise concurrent scenario execution + shared cache
		}
		tables, err := eng.Run(goldenCfg, scenario.All())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: engine run failed: %v", gmp, err)
		}
		for _, tab := range tables {
			if got, want := tab.String(), readGolden(t, tab.ID); got != want {
				t.Errorf("GOMAXPROCS %d: %s differs from pre-refactor golden:\n--- got ---\n%s\n--- want ---\n%s",
					gmp, tab.ID, got, want)
			}
		}
		if gmp > 1 {
			// The concurrent run must have shared structures across scenarios
			// (E13's two protocol runs share a deployment, E14's baselines
			// share a deployment and base graph, ...).
			if st := eng.Cache.Stats(); st.Hits == 0 {
				t.Errorf("full-suite run recorded no cache hits: %+v", st)
			}
		}
	}
}

// TestSuiteRebuildsSharedStructuresAtMostOnce is the cache-hit counter
// gate from the acceptance criteria: after a full-suite engine run, every
// cached structure exists exactly once (misses == entries, by
// construction), and re-running the structure-heavy scenarios against the
// same engine performs ZERO new builds — deployments, base graphs, SENS
// networks and baselines all come back as hits. The weight-slab cache is
// held to the same standard.
func TestSuiteRebuildsSharedStructuresAtMostOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng := scenario.NewEngine(nil)
	eng.Jobs = 2
	if _, err := eng.Run(goldenCfg, scenario.All()); err != nil {
		t.Fatal(err)
	}
	first := eng.Cache.Stats()
	if first.Misses != int64(first.Entries) {
		t.Errorf("builds (%d) != distinct structures (%d): some key was built twice",
			first.Misses, first.Entries)
	}
	if first.Hits == 0 {
		t.Error("no structure sharing observed across the suite")
	}
	_, slabMisses := eng.Slabs.Stats()

	// Re-running the structure-heavy scenarios must rebuild nothing.
	var rerun []scenario.Scenario
	for _, id := range []string{"E04", "E08", "E13", "E14", "R01", "R02"} {
		rerun = append(rerun, *scenario.Find(id))
	}
	if _, err := eng.Run(goldenCfg, rerun); err != nil {
		t.Fatal(err)
	}
	second := eng.Cache.Stats()
	if second.Misses != first.Misses {
		t.Errorf("re-run rebuilt %d structures, want 0", second.Misses-first.Misses)
	}
	if second.Hits <= first.Hits {
		t.Error("re-run recorded no cache hits")
	}
	if _, after := eng.Slabs.Stats(); after != slabMisses {
		t.Errorf("re-run refilled %d weight slabs, want 0", after-slabMisses)
	}
}
