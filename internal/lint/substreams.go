package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// substreamPkgs are the packages whose constant RNG substream numbers the
// registry governs: the scenario drivers, the engine's cache helpers and
// the energy workloads — everywhere a stream constant decides which random
// draws a cached structure or a simulation consumes.
var substreamPkgs = map[string]bool{
	"internal/experiments": true,
	"internal/scenario":    true,
	"internal/energy":      true,
}

// streamArgIndex maps the Ctx cache-helper methods to the position of
// their stream-number argument. rng.Sub's stream is argument 1 and is
// handled separately.
var streamArgIndex = map[string]int{
	"Deploy":         0,
	"DeployGradient": 0,
	"DeploySoA":      0,
	"HNG":            2,
	"Trajectory":     2,
}

// streamUse is one constant substream number observed in code.
type streamUse struct {
	Stream uint64
	File   string // basename, the registry's owner coordinate
	Pos    token.Position
}

// substreams extracts every constant-argument rng.Sub(seed, N) stream and
// every constant Ctx helper stream number from the governed packages and
// cross-checks them against the docs/substreams.md registry. Three failure
// modes, each fatal:
//
//   - missing entry: a stream constant in code that the registry does not
//     list — every stream must be claimed before use;
//   - collision: a stream used from a file the registry does not name as
//     an owner — deliberate sharing (H01 reusing E14's deployment) is
//     declared by listing both owners, anything else is two scenarios
//     silently drawing correlated randomness from one seed;
//   - stale entry: a registry stream no longer present in code — the
//     registry must shrink with the code so it stays trustworthy.
//
// Computed streams (base+i loops) are invisible to this analyzer; the
// registry documents their bases as prose rows the analyzer ignores
// (non-numeric Stream column).
func substreams(mod *Module, registryPath string) []Diagnostic {
	if registryPath == "" {
		registryPath = filepath.Join(mod.Root, "docs", "substreams.md")
	}
	uses := collectStreamUses(mod)
	reg, diags := parseRegistry(registryPath)
	if len(diags) > 0 {
		return diags
	}

	usedStreams := make(map[uint64]bool)
	for _, u := range uses {
		usedStreams[u.Stream] = true
		owners, ok := reg.owners[u.Stream]
		if !ok {
			diags = append(diags, Diagnostic{
				Pos:  u.Pos,
				Rule: "substreams",
				Msg:  fmt.Sprintf("stream %d is not in the registry (%s): add a row claiming it", u.Stream, reg.path),
			})
			continue
		}
		if !owners[u.File] {
			diags = append(diags, Diagnostic{
				Pos:  u.Pos,
				Rule: "substreams",
				Msg: fmt.Sprintf("stream %d used by %s but registered to %s: undeclared sharing collides on one seed (add the owner to the registry row if deliberate)",
					u.Stream, u.File, strings.Join(reg.ownerList[u.Stream], ", ")),
			})
		}
	}
	for _, s := range reg.streams {
		if !usedStreams[s] {
			diags = append(diags, Diagnostic{
				Pos:  token.Position{Filename: reg.path, Line: reg.line[s]},
				Rule: "substreams",
				Msg:  fmt.Sprintf("stale registry entry: stream %d no longer appears in code", s),
			})
		}
	}
	return diags
}

// collectStreamUses gathers the constant stream numbers of the governed
// packages, sorted by position. Besides the direct sinks (rng.Sub and the
// Ctx helpers), package-local wrapper functions are tracked by a small
// fixpoint: a function whose parameter reaches a stream position makes its
// own call sites stream sinks at that parameter, so idioms like
// udgNet(ctx, 800, …) register 800 too. Streams computed at a call site
// (base+i loops) stay invisible by design.
func collectStreamUses(mod *Module) []streamUse {
	var uses []streamUse
	for _, pkg := range mod.Pkgs {
		if !substreamPkgs[mod.Rel(pkg)] {
			continue
		}
		sinks := streamSinks(pkg)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, idx := range streamArgPositions(call, sinks) {
					stream, ok := constStream(pkg, call.Args[idx])
					if !ok {
						continue
					}
					pos := mod.Fset.Position(call.Pos())
					uses = append(uses, streamUse{Stream: stream, File: filepath.Base(pos.Filename), Pos: pos})
				}
				return true
			})
		}
	}
	sort.Slice(uses, func(i, j int) bool {
		a, b := uses[i].Pos, uses[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return uses[i].Stream < uses[j].Stream
	})
	return uses
}

// streamSinks computes, per package-local function name, the parameter
// positions that flow into a stream argument (of a direct sink or of a
// previously discovered wrapper), iterated to a fixpoint.
func streamSinks(pkg *Package) map[string]map[int]bool {
	sinks := make(map[string]map[int]bool)
	for changed := true; changed; {
		changed = false
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Type.Params == nil {
					continue
				}
				paramIdx := make(map[string]int)
				i := 0
				for _, field := range fn.Type.Params.List {
					for _, name := range field.Names {
						paramIdx[name.Name] = i
						i++
					}
				}
				if len(paramIdx) == 0 {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					for _, idx := range streamArgPositions(call, sinks) {
						name := identName(call.Args[idx])
						pi, isParam := paramIdx[name]
						if !isParam {
							continue
						}
						if sinks[fn.Name.Name] == nil {
							sinks[fn.Name.Name] = make(map[int]bool)
						}
						if !sinks[fn.Name.Name][pi] {
							sinks[fn.Name.Name][pi] = true
							changed = true
						}
					}
					return true
				})
			}
		}
	}
	return sinks
}

// streamArgPositions returns the argument indexes of call that are stream
// numbers: rng.Sub's second argument, the Ctx helpers' documented
// positions, and any wrapper positions discovered by streamSinks.
func streamArgPositions(call *ast.CallExpr, sinks map[string]map[int]bool) []int {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if name == "Sub" && identName(fun.X) == "rng" && len(call.Args) == 2 {
			return []int{1}
		}
	case *ast.Ident:
		name = fun.Name
	default:
		return nil
	}
	var out []int
	if idx, ok := streamArgIndex[name]; ok && len(call.Args) > idx {
		out = append(out, idx)
	}
	for idx := range sinks[name] {
		if len(call.Args) > idx {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	// A wrapper position may coincide with a documented helper position.
	out = dedupInts(out)
	return out
}

// dedupInts removes adjacent duplicates from a sorted slice.
func dedupInts(xs []int) []int {
	n := 0
	for i, x := range xs {
		if i == 0 || x != xs[n-1] {
			xs[n] = x
			n++
		}
	}
	return xs[:n]
}

// constStream evaluates a stream argument to a constant uint64 when
// possible: via the type checker's constant folding first (covers named
// constants), then a literal-int fallback for untyped fixture code.
func constStream(pkg *Package, expr ast.Expr) (uint64, bool) {
	if pkg.Info != nil {
		if tv, ok := pkg.Info.Types[expr]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			if v, ok := constant.Uint64Val(tv.Value); ok {
				return v, true
			}
			return 0, false
		}
	}
	if lit, ok := expr.(*ast.BasicLit); ok && lit.Kind == token.INT {
		v, err := strconv.ParseUint(lit.Value, 0, 64)
		return v, err == nil
	}
	return 0, false
}

// registry is the parsed machine-readable half of docs/substreams.md.
type registry struct {
	path      string
	streams   []uint64 // registered constant streams, in file order
	owners    map[uint64]map[string]bool
	ownerList map[uint64][]string
	line      map[uint64]int
}

// parseRegistry reads the substream registry: every markdown table row
// whose first cell is a bare integer is an entry `| stream | owners |
// purpose |` with owners a comma-separated file list. Rows with
// non-numeric stream cells (range bases like "3000+") are documentation
// only. A missing or duplicate-entry registry is itself a finding.
func parseRegistry(path string) (*registry, []Diagnostic) {
	reg := &registry{
		path:      path,
		owners:    make(map[uint64]map[string]bool),
		ownerList: make(map[uint64][]string),
		line:      make(map[uint64]int),
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return reg, []Diagnostic{{
			Pos:  token.Position{Filename: path},
			Rule: "substreams",
			Msg:  fmt.Sprintf("registry unreadable: %v (generate one with sensvet -gen-substreams)", err),
		}}
	}
	var diags []Diagnostic
	for i, line := range strings.Split(string(data), "\n") {
		cells := tableRow(line)
		if len(cells) < 2 {
			continue
		}
		stream, err := strconv.ParseUint(cells[0], 10, 64)
		if err != nil {
			continue // header, separator, or a documentation-only range row
		}
		if _, dup := reg.owners[stream]; dup {
			diags = append(diags, Diagnostic{
				Pos:  token.Position{Filename: path, Line: i + 1},
				Rule: "substreams",
				Msg:  fmt.Sprintf("duplicate registry entry for stream %d", stream),
			})
			continue
		}
		owners := make(map[string]bool)
		var list []string
		for _, o := range strings.Split(cells[1], ",") {
			o = strings.TrimSpace(o)
			if o != "" {
				owners[o] = true
				list = append(list, o)
			}
		}
		if len(owners) == 0 {
			diags = append(diags, Diagnostic{
				Pos:  token.Position{Filename: path, Line: i + 1},
				Rule: "substreams",
				Msg:  fmt.Sprintf("registry entry for stream %d has no owners", stream),
			})
			continue
		}
		reg.streams = append(reg.streams, stream)
		reg.owners[stream] = owners
		reg.ownerList[stream] = list
		reg.line[stream] = i + 1
	}
	return reg, diags
}

// tableRow splits a markdown table line into trimmed cells, or nil when the
// line is not a table row.
func tableRow(line string) []string {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "|") {
		return nil
	}
	parts := strings.Split(strings.Trim(line, "|"), "|")
	cells := make([]string, len(parts))
	for i, p := range parts {
		cells[i] = strings.TrimSpace(p)
	}
	return cells
}

// GenerateRegistry renders a registry table skeleton from the module's
// current constant stream uses — the bootstrap for docs/substreams.md (the
// purpose column starts as TODO; owners come from code). Output is
// deterministic: streams ascending, owners in first-use order.
func GenerateRegistry(mod *Module) string {
	uses := collectStreamUses(mod)
	owners := make(map[uint64][]string)
	var streams []uint64
	for _, u := range uses {
		if _, ok := owners[u.Stream]; !ok {
			streams = append(streams, u.Stream)
		}
		dup := false
		for _, o := range owners[u.Stream] {
			if o == u.File {
				dup = true
			}
		}
		if !dup {
			owners[u.Stream] = append(owners[u.Stream], u.File)
		}
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i] < streams[j] })
	var b strings.Builder
	b.WriteString("| Stream | Owners | Purpose |\n| --- | --- | --- |\n")
	for _, s := range streams {
		fmt.Fprintf(&b, "| %d | %s | TODO |\n", s, strings.Join(owners[s], ", "))
	}
	return b.String()
}

// identName returns the name of an identifier expression, or "".
func identName(expr ast.Expr) string {
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
