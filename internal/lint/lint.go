// Package lint implements sensvet, the project-specific static-analysis
// suite and the repository's one static-analysis gate: the conventions that
// keep every result table byte-identical at GOMAXPROCS 1 and 8, keep the
// internal API no larger than its callers need, and keep exported
// identifiers documented are checkable rules here.
//
// Six analyzers ship (see their files for the precise rules):
//
//   - detrange: map iteration in a result-producing package is the
//     canonical GOMAXPROCS-independent nondeterminism leak — every map
//     range and maps.Keys/Values/All is flagged, except
//     slices.Sorted(maps.Keys(m)).
//   - detclock: wall-clock reads (time.Now, time.Since) and global
//     math/rand state outside the measurement/reporting allowlist.
//   - substreams: constant RNG substream numbers cross-checked against the
//     docs/substreams.md registry (collisions, stale entries, missing
//     entries), turning the prose substream map into a checked artifact.
//   - deadcode: exported internal/ API that no non-test code of the tree and
//     no other package's tests reach.
//   - doclint: exported identifiers without a godoc comment (generated
//     files exempt).
//   - waiverlint: every //sensvet:allow waiver must carry a rule and a
//     reason, and must still suppress something (the allowlist only
//     shrinks).
//
// A finding is suppressed by a waiver comment on the flagged line or the
// line above it:
//
//	//sensvet:allow <rule> — <reason>
//
// The package is stdlib-only (go/ast, go/token, go/types) and never shells
// out; see Module for the type-checking tradeoff that buys.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule names the analyzer that produced it (one of Rules()).
	Rule string
	// Msg describes the finding.
	Msg string
}

// String renders the finding in the file:line: rule: message shape the CLI
// prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Msg)
}

// Rules lists the analyzer names sensvet ships, the valid targets of a
// //sensvet:allow waiver.
func Rules() []string {
	return []string{"detrange", "detclock", "substreams", "deadcode", "doclint", "waiverlint"}
}

// Options configures a Run.
type Options struct {
	// RegistryPath overrides the substream registry location (default
	// docs/substreams.md under the module root).
	RegistryPath string
}

// Run executes every analyzer over the module, applies //sensvet:allow
// waivers, and appends waiverlint's findings about the waivers themselves.
// The result is sorted by position then rule.
func Run(mod *Module, opt Options) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, detrange(mod)...)
	diags = append(diags, detclock(mod)...)
	diags = append(diags, substreams(mod, opt.RegistryPath)...)
	diags = append(diags, deadcode(mod)...)
	diags = append(diags, doclint(mod)...)

	waivers := scanWaivers(mod)
	kept := applyWaivers(diags, waivers)
	kept = append(kept, waiverlint(waivers)...)
	sortDiagnostics(kept)
	return kept
}

// sortDiagnostics orders findings by file, line, column, rule, message —
// the deterministic output contract.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}
