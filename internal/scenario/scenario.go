// Package scenario is the declarative experiment layer of the repository:
// a registry of named, tagged scenarios (the paper artifacts E01–E18 and
// every future workload), an Engine that executes them through a keyed
// build cache — deployments, base graphs, SENS structures, topology-control
// baselines and power.Measurer weight slabs are built at most once per
// (seed, params) and shared across every scenario that needs them — and a
// typed row stream feeding pluggable result sinks (aligned text tables,
// CSV, JSONL).
//
// A scenario is registered once, usually from an init function:
//
//	scenario.Register(scenario.Scenario{
//		ID:    "E08",
//		Name:  "stretch",
//		Title: "Theorem 3.2: distance stretch of SENS paths",
//		Tags:  []string{"sens", "stretch"},
//		Grid:  []scenario.Param{{Name: "network", Values: []string{"UDG-SENS", "NN-SENS"}}},
//		Needs: []string{"deployment", "udg-sens", "nn-sens"},
//		Run:   runStretch,
//	})
//
// and executed — alone, by glob, or by tag — through an Engine, whose Ctx
// hands the Run function the shared Cache and slab cache. Tables produced
// by a Run are replayed into the engine's Sink in registration order, so
// output is byte-identical at any concurrency level.
package scenario

import (
	"fmt"
	"maps"
	"math"
	"path"
	"slices"
	"strings"

	"repro/internal/rng"
)

// Config tunes a scenario run. It is shared by every registered scenario
// (the historical experiments.Config).
type Config struct {
	// Seed makes the run reproducible; every scenario derives independent
	// substreams from it.
	Seed rng.Seed
	// Scale multiplies trial counts and shrinks boxes for quick runs:
	// 1 = full (EXPERIMENTS.md numbers), 0.2 = smoke test. Values ≤ 0 are
	// treated as 1.
	Scale float64
}

// Trials scales a trial count, keeping at least min.
func (c Config) Trials(base, min int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	n := int(float64(base) * s)
	if n < min {
		n = min
	}
	return n
}

// Size scales a linear dimension, keeping at least min.
func (c Config) Size(base, min float64) float64 {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	// Linear dimensions shrink with sqrt(scale) so areas shrink with scale;
	// scales above 1 do not grow the box.
	if s > 1 {
		s = 1
	}
	v := base * math.Sqrt(s)
	if v < min {
		v = min
	}
	return v
}

// Param is one axis of a scenario's declarative parameter grid — the values
// the Run function sweeps, surfaced by the registry (cmd/experiments -list)
// so the grid is inspectable without reading the driver.
type Param struct {
	Name   string
	Values []string
}

// Scenario is a registered experiment: identity, discovery metadata and the
// Run function that produces its result table through a Ctx.
type Scenario struct {
	// ID is the stable artifact identifier ("E08"). Unique.
	ID string
	// Name is a human-friendly slug ("stretch"). Unique.
	Name string
	// Title is the one-line description shown in listings and table headers.
	Title string
	// Tags support run-by-tag selection ("sens", "percolation", "power").
	Tags []string
	// Grid declares the parameter axes the scenario sweeps.
	Grid []Param
	// Needs names the shared cached structures the Run pulls through the
	// Ctx ("deployment", "udg-base", "udg-sens", "measurer-slabs", ...);
	// purely declarative, used for listings and cache-planning.
	Needs []string
	// Run executes the scenario. It must be deterministic in ctx.Cfg.Seed
	// (byte-identical tables at any GOMAXPROCS) and should route shared
	// structure builds through the Ctx cache helpers.
	Run func(ctx *Ctx) *Table
}

// HasTag reports whether the scenario carries the given tag.
func (s *Scenario) HasTag(tag string) bool {
	for _, t := range s.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// registry holds scenarios in registration order.
var registry []Scenario

// Register adds a scenario to the global registry. It panics on a duplicate
// ID or name, or a nil Run — registration happens at init time and a broken
// registry should fail loudly.
func Register(s Scenario) {
	if s.ID == "" || s.Run == nil {
		panic("scenario: Register needs an ID and a Run function")
	}
	for i := range registry {
		if registry[i].ID == s.ID || (s.Name != "" && registry[i].Name == s.Name) {
			panic(fmt.Sprintf("scenario: duplicate registration %q/%q", s.ID, s.Name))
		}
	}
	registry = append(registry, s)
}

// All returns the registered scenarios in registration order.
func All() []Scenario {
	out := make([]Scenario, len(registry))
	copy(out, registry)
	return out
}

// Find returns the scenario with the given ID or name, or nil.
func Find(idOrName string) *Scenario {
	for i := range registry {
		if registry[i].ID == idOrName || registry[i].Name == idOrName {
			return &registry[i]
		}
	}
	return nil
}

// Tags returns the sorted set of all registered tags.
func Tags() []string {
	seen := map[string]bool{}
	for i := range registry {
		for _, t := range registry[i].Tags {
			seen[t] = true
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

// Match selects scenarios by a list of patterns, returning them in
// registration order with duplicates removed. Each pattern is one of:
//
//   - "all" or "*" — every scenario;
//   - an exact ID ("E08") or name ("stretch");
//   - "tag:sens" — every scenario carrying the tag;
//   - a glob over the ID or name ("E0?", "ablation-*"), path.Match syntax.
//
// A pattern that selects nothing is an error (it is almost always a typo),
// as is a selector list with no patterns at all (a mis-expanded variable).
func Match(patterns []string) ([]Scenario, error) {
	selected := make([]bool, len(registry))
	nonEmpty := 0
	for _, pat := range patterns {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		nonEmpty++
		hit := false
		for i := range registry {
			s := &registry[i]
			if matchOne(s, pat) {
				selected[i] = true
				hit = true
			}
		}
		if !hit {
			return nil, fmt.Errorf("scenario: pattern %q matches nothing (try -list)", pat)
		}
	}
	if nonEmpty == 0 {
		return nil, fmt.Errorf("scenario: empty selector (use \"all\", an ID, a glob or tag:<t>)")
	}
	var out []Scenario
	for i, ok := range selected {
		if ok {
			out = append(out, registry[i])
		}
	}
	return out, nil
}

func matchOne(s *Scenario, pat string) bool {
	if pat == "all" || pat == "*" {
		return true
	}
	if tag, ok := strings.CutPrefix(pat, "tag:"); ok {
		return s.HasTag(tag)
	}
	if s.ID == pat || s.Name == pat {
		return true
	}
	if ok, err := path.Match(pat, s.ID); err == nil && ok {
		return true
	}
	if ok, err := path.Match(pat, s.Name); err == nil && ok {
		return true
	}
	return false
}

// resetRegistry clears the registry; tests only.
func resetRegistry() { registry = nil }
