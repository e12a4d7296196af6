package experiments

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// smoke runs every experiment at a small scale and sanity-checks the table.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Seed: 42, Scale: 0.15}
	for _, r := range scenario.All() {
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			table := r.Run(scenario.NewCtx(cfg))
			if table == nil {
				t.Fatal("nil table")
			}
			if table.ID != r.ID {
				t.Errorf("table ID %q != scenario ID %q", table.ID, r.ID)
			}
			if len(table.Rows) == 0 {
				t.Error("no rows")
			}
			out := table.String()
			if !strings.Contains(out, r.ID) {
				t.Error("render missing ID")
			}
			for _, row := range table.Rows {
				for _, cell := range row {
					if strings.Contains(cell, "ERR") {
						t.Errorf("row reports error: %v", row)
					}
				}
			}
		})
	}
}

// runByID runs the registered scenario id one-off against fresh caches.
func runByID(id string, cfg Config) *Table {
	return scenario.Find(id).Run(scenario.NewCtx(cfg))
}

// TestByID checks that importing the package registers every experiment
// under its ID in the scenario registry.
func TestByID(t *testing.T) {
	if s := scenario.Find("E05"); s == nil || s.ID != "E05" {
		t.Error("scenario lookup of E05 failed")
	}
	if scenario.Find("nope") != nil {
		t.Error("lookup should return nil for unknown")
	}
}

func TestConfigScaling(t *testing.T) {
	c := Config{Scale: 0.25}
	if got := c.Trials(100, 10); got != 25 {
		t.Errorf("trials = %d", got)
	}
	if got := c.Trials(100, 60); got != 60 {
		t.Errorf("trials floor = %d", got)
	}
	if got := (Config{}).Trials(100, 10); got != 100 {
		t.Errorf("zero scale should mean full: %d", got)
	}
	// size shrinks linearly with sqrt(scale): 0.25 → half.
	if got := c.Size(40, 5); got < 19 || got > 21 {
		t.Errorf("size = %v", got)
	}
	if got := c.Size(40, 30); got != 30 {
		t.Errorf("size floor = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.AddNote("hello %d", 5)
	out := tab.String()
	if !strings.Contains(out, "X — demo") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "note: hello 5") {
		t.Error("missing note")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // header, columns, rule, 2 rows, note
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int]int{4: 8, 8: 8, 15: 8, 16: 16, 64: 64, 500: 128}
	for in, want := range cases {
		if got := bucketOf(in); got != want {
			t.Errorf("bucketOf(%d) = %d want %d", in, got, want)
		}
	}
}

func TestParallelForCoversAll(t *testing.T) {
	hits := make([]int32, 100)
	parallelFor(100, func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	// n smaller than workers.
	small := make([]int32, 2)
	parallelFor(2, func(i int) { small[i]++ })
	if small[0] != 1 || small[1] != 1 {
		t.Error("small parallelFor wrong")
	}
	parallelFor(0, func(i int) { t.Error("fn called for n=0") })
}

func TestTableStringEdgeCases(t *testing.T) {
	// A zero-column table must render, not index widths[-1].
	empty := &Table{ID: "Z", Title: "no columns"}
	if out := empty.String(); !strings.Contains(out, "Z — no columns") {
		t.Errorf("zero-column render wrong:\n%s", out)
	}
	empty.AddRow()
	_ = empty.String() // zero-width row on a zero-column table

	// Rows wider than the header get their own aligned columns instead of
	// silently sharing the last header width.
	wide := &Table{ID: "W", Title: "wide", Columns: []string{"a"}}
	wide.AddRow("x", "longcell", "z")
	wide.AddRow("1", "2", "3")
	out := wide.String()
	if !strings.Contains(out, "longcell  z") {
		t.Errorf("wide row misaligned:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "1") && line != "1  2         3" {
			t.Errorf("overflow columns not padded: %q", line)
		}
	}
}

func TestFormattersNeverRenderNaN(t *testing.T) {
	if got := f4(math.NaN()); got != "n/a" {
		t.Errorf("f4(NaN) = %q", got)
	}
	if got := f2(math.NaN()); got != "n/a" {
		t.Errorf("f2(NaN) = %q", got)
	}
	// The E12 failure shape: a mean over zero delivered routes.
	if got := f4(stats.Mean(nil)); got != "n/a" {
		t.Errorf("mean of empty sample renders %q", got)
	}
	if got := f4(1.25); got != "1.25" {
		t.Errorf("f4(1.25) = %q", got)
	}
}

// TestPowerTablesDeterministicAcrossGOMAXPROCS pins the acceptance contract
// for the batched measurement engine: the E11 and E14 tables (whose hot
// loops now fan out over cores) must be byte-identical at any worker count
// for a fixed seed.
func TestPowerTablesDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Seed: 7, Scale: 0.15}
	for _, id := range []string{"E11", "E14"} {
		// 8 workers for the parallel leg even on a 1-CPU box (workers =
		// min(GOMAXPROCS, shards); the default there would also be serial).
		prev := runtime.GOMAXPROCS(8)
		parallelOut := runByID(id, cfg).String()
		runtime.GOMAXPROCS(1)
		serialOut := runByID(id, cfg).String()
		runtime.GOMAXPROCS(prev)
		if parallelOut != serialOut {
			t.Errorf("%s differs between GOMAXPROCS 1 and default:\n%s\n---\n%s",
				id, serialOut, parallelOut)
		}
	}
}
