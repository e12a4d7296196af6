// Command experiments regenerates the paper-reproduction tables (DESIGN.md
// §4) through the scenario engine: every experiment — the paper artifacts
// E01–E18, the hierarchical-neighbor-graph comparisons H01–H03 and the
// energy/lifetime scenarios Q01–Q03 — is a registered scenario, executed
// through a shared build cache (deployments, base graphs, SENS structures,
// HNGs, baselines, lifetime instances and measurement weight slabs are
// built at most once per suite run) with each finished table handed to a
// pluggable sink.
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
//	experiments -format csv -out t.csv # write the tables as CSV to a file
//	experiments -format jsonl          # one JSON event per table/row/note
//	experiments -jobs 4                # run up to 4 scenarios concurrently
//
// Output is deterministic for a fixed seed: tables are emitted in
// registration order and are byte-identical at any -jobs value or
// GOMAXPROCS.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	_ "repro/internal/experiments" // registers the scenarios at init
	"repro/internal/rng"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sinks builds the result sink of each -format; timings switches the
// per-table wall time on or off where the format has one.
var sinks = map[string]func(w io.Writer, timings bool) scenario.Sink{
	"table": func(w io.Writer, timings bool) scenario.Sink {
		return &scenario.TextSink{W: w, Timings: timings}
	},
	"csv": func(w io.Writer, _ bool) scenario.Sink { return scenario.NewCSVSink(w) },
	"jsonl": func(w io.Writer, timings bool) scenario.Sink {
		s := scenario.NewJSONLSink(w)
		s.Timings = timings
		return s
	},
}

// run executes the CLI against explicit streams and returns the process
// exit code — the testable core of the command.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runSel = fs.String("run", "all", "comma-separated scenario selectors: IDs (E05), "+
			"names (stretch), globs (E0?, ablation-*) or tags (tag:power)")
		scale   = fs.Float64("scale", 1.0, "trial/size multiplier (1 = EXPERIMENTS.md scale)")
		seed    = fs.Uint64("seed", 2026, "random seed")
		list    = fs.Bool("list", false, "list available scenarios and exit")
		format  = fs.String("format", "table", "output format: table, csv or jsonl")
		out     = fs.String("out", "", "write results to this file instead of stdout")
		jobs    = fs.Int("jobs", 1, "max scenarios running concurrently")
		timings = fs.Bool("timings", true, "report per-scenario wall time (table and jsonl formats)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		listScenarios(stdout)
		return 0
	}

	selected, err := scenario.Match(strings.Split(*runSel, ","))
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	newSink, ok := sinks[*format]
	if !ok {
		fmt.Fprintf(stderr, "experiments: unknown format %q (table, csv, jsonl)\n", *format)
		return 1
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				code = 1
			}
		}()
		w = f
	}

	eng := scenario.NewEngine(newSink(w, *timings))
	eng.Jobs = *jobs
	cfg := scenario.Config{Seed: rng.Seed(*seed), Scale: *scale}
	if _, err := eng.Run(cfg, selected); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}

func listScenarios(w io.Writer) {
	for _, s := range scenario.All() {
		fmt.Fprintf(w, "%s  %-18s %s\n", s.ID, s.Name, s.Title)
		if len(s.Tags) > 0 {
			fmt.Fprintf(w, "     tags: %s\n", strings.Join(s.Tags, ", "))
		}
		for _, p := range s.Grid {
			fmt.Fprintf(w, "     grid: %s ∈ {%s}\n", p.Name, strings.Join(p.Values, ", "))
		}
		if len(s.Needs) > 0 {
			fmt.Fprintf(w, "     needs: %s\n", strings.Join(s.Needs, ", "))
		}
	}
	fmt.Fprintf(w, "\ntags: %s\n", strings.Join(scenario.Tags(), ", "))
}
