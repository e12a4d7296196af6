// Package experiments contains one driver per reproduced paper artifact
// (see DESIGN.md §4): each E** driver regenerates the table backing a
// theorem, claim or numeric bound of the paper. The drivers are registered
// as scenarios in internal/scenario — with tags, a declarative parameter
// grid and the shared structures they need — and execute through a
// scenario.Ctx, whose keyed cache shares deployments, base graphs, SENS
// structures, topology baselines and power.Measurer weight slabs across
// every driver in a suite run. The scenario registry is the one list of
// experiments: importing this package registers them, and callers look
// them up through scenario.All or scenario.Match.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/scenario"
)

// Config tunes an experiment run: seed plus trial/size scale. It is the
// scenario engine's Config (Trials and Size are its scaling helpers).
type Config = scenario.Config

// Table is a rendered experiment result — the scenario engine's typed row
// payload.
type Table = scenario.Table

// f4 formats a float at 4 significant digits. NaN — the mean of an empty
// sample, a 0/0 ratio — renders as "n/a" so no experiment table can show a
// bare NaN cell.
func f4(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.4g", v)
}

// f2 formats a float at 2 decimal places (NaN as "n/a", like f4).
func f2(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// d formats an int.
func d(v int) string { return fmt.Sprintf("%d", v) }

func init() {
	registerE01E03()
	registerE04E07()
	registerE08E11()
	registerE12E14()
	registerE15E16()
	registerE17E18()
	registerHNG()
	registerEnergy()
	registerRobustness()
	registerMobility()
}

// parallelFor runs fn(i) for i in [0, n) on all cores and waits; it is the
// shared primitive from internal/parallel, kept under its historical name
// because every driver uses it. Grain 1: each experiment row/realization is
// heavyweight, so every index gets its own shard instead of serializing
// under the default bulk shard size.
func parallelFor(n int, fn func(i int)) { parallel.ForGrain(n, 1, fn) }

// grid builds a one-axis scenario.Param.
func grid(name string, values ...string) scenario.Param {
	return scenario.Param{Name: name, Values: values}
}
