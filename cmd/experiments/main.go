// Command experiments regenerates the paper-reproduction tables (DESIGN.md
// §4) through the scenario engine: every experiment — the paper artifacts
// E01–E18, the hierarchical-neighbor-graph comparisons H01–H03 and the
// energy/lifetime scenarios Q01–Q03 — is a registered scenario, executed
// through a shared build cache (deployments, base graphs, SENS structures,
// HNGs, baselines, lifetime instances and measurement weight slabs are
// built at most once per suite run) with results streamed to a pluggable
// sink.
//
// Usage:
//
//	experiments                        # run everything at full scale
//	experiments -list                  # list scenarios, tags and parameter grids
//	experiments -run E05,E07           # just the threshold experiments
//	experiments -run 'E0?'             # glob over IDs or names
//	experiments -run tag:power         # everything tagged "power"
//	experiments -run tag:topology:hng  # the hierarchical-neighbor-graph suite
//	experiments -run tag:energy        # the battery/lifetime suite (Q01–Q03)
//	experiments -run stretch           # by scenario name
//	experiments -scale 0.2             # quick pass
//	experiments -format csv -out t.csv # stream rows as CSV to a file
//	experiments -format jsonl          # one JSON event per table/row/note
//	experiments -jobs 4                # run up to 4 scenarios concurrently
//
// Output is deterministic for a fixed seed: tables are emitted in
// registration order and are byte-identical at any -jobs value or
// GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	_ "repro/internal/experiments" // registers the scenarios at init
	"repro/internal/rng"
	"repro/internal/scenario"
)

func main() {
	var (
		run = flag.String("run", "all", "comma-separated scenario selectors: IDs (E05), "+
			"names (stretch), globs (E0?, ablation-*) or tags (tag:power)")
		scale   = flag.Float64("scale", 1.0, "trial/size multiplier (1 = EXPERIMENTS.md scale)")
		seed    = flag.Uint64("seed", 2026, "random seed")
		list    = flag.Bool("list", false, "list available scenarios and exit")
		format  = flag.String("format", "table", "output format: table, csv or jsonl")
		out     = flag.String("out", "", "write results to this file instead of stdout")
		jobs    = flag.Int("jobs", 1, "max scenarios running concurrently")
		timings = flag.Bool("timings", true, "report per-scenario wall time (table and jsonl formats)")
	)
	flag.Parse()
	if *list {
		listScenarios()
		return
	}

	selected, err := scenario.Match(strings.Split(*run, ","))
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	var sink scenario.Sink
	switch *format {
	case "table":
		ts := scenario.NewTextSink(w)
		ts.Timings = *timings
		sink = ts
	case "csv":
		sink = scenario.NewCSVSink(w)
	case "jsonl":
		js := scenario.NewJSONLSink(w)
		if !*timings {
			sink = noTimingSink{js}
		} else {
			sink = js
		}
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q (table, csv, jsonl)\n", *format)
		os.Exit(1)
	}

	eng := scenario.NewEngine(sink)
	eng.Jobs = *jobs
	cfg := scenario.Config{Seed: rng.Seed(*seed), Scale: *scale}
	if _, err := eng.Run(cfg, selected); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// noTimingSink hides the TimingSink extension of the wrapped sink.
type noTimingSink struct{ scenario.Sink }

func listScenarios() {
	for _, s := range scenario.All() {
		fmt.Printf("%s  %-18s %s\n", s.ID, s.Name, s.Title)
		if len(s.Tags) > 0 {
			fmt.Printf("     tags: %s\n", strings.Join(s.Tags, ", "))
		}
		for _, p := range s.Grid {
			fmt.Printf("     grid: %s ∈ {%s}\n", p.Name, strings.Join(p.Values, ", "))
		}
		if len(s.Needs) > 0 {
			fmt.Printf("     needs: %s\n", strings.Join(s.Needs, ", "))
		}
	}
	fmt.Printf("\ntags: %s\n", strings.Join(scenario.Tags(), ", "))
}
