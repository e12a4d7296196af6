package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// resultPkgs lists the result-producing packages whose non-test code must
// not iterate maps in native (scheduler-dependent) order: everything whose
// output lands in a golden table, a benchmark row, or a served response.
var resultPkgs = map[string]bool{
	"internal/core":     true,
	"internal/graph":    true,
	"internal/hng":      true,
	"internal/mobility": true,
	"internal/power":    true,
	"internal/scenario": true,
	"internal/serve":    true,
	"internal/fault":    true,
	"internal/energy":   true,
	"internal/routing":  true,
	"internal/topo":     true,
	"internal/rgg":      true,
}

// detrange flags map iteration in the result-producing packages: every
// `range` over a map-typed expression and every maps.Keys / maps.Values /
// maps.All reference, anywhere in a non-test file (function literals
// included). The runtime randomizes map iteration order, so such a loop is
// a nondeterminism leak that no GOMAXPROCS pinning can hide. The one
// sanctioned form is slices.Sorted(maps.Keys(m)): distinct keys in
// ascending order. Anything else needs that sorted key slice, a slab, or a
// //sensvet:allow waiver stating why order cannot reach result bytes.
func detrange(mod *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range mod.Pkgs {
		if !resultPkgs[mod.Rel(pkg)] {
			continue
		}
		for _, f := range pkg.Files {
			for _, pos := range detrangeFile(pkg, f) {
				out = append(out, Diagnostic{
					Pos:  mod.Fset.Position(pos),
					Rule: "detrange",
					Msg:  "map iteration order is nondeterministic: iterate slices.Sorted(maps.Keys(m)) or a slab instead, or waive with a reason",
				})
			}
		}
	}
	return out
}

// detrangeFile returns the flagged positions in one file: the `range`
// keyword of each map range and each unsorted maps iterator selector.
func detrangeFile(pkg *Package, f *ast.File) []token.Pos {
	mapsName := importLocalName(f, "maps")
	slicesName := importLocalName(f, "slices")
	sorted := make(map[ast.Expr]bool) // maps.Keys selectors under slices.Sorted
	var out []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapType(pkg, n.X) {
				out = append(out, n.Range)
			}
		case *ast.CallExpr:
			if pkgSel(pkg, n.Fun, slicesName) == "Sorted" && len(n.Args) == 1 {
				if inner, ok := n.Args[0].(*ast.CallExpr); ok && pkgSel(pkg, inner.Fun, mapsName) == "Keys" {
					sorted[inner.Fun] = true
				}
			}
		case *ast.SelectorExpr:
			// The maps iterators yield in native order, like a range.
			switch pkgSel(pkg, n, mapsName) {
			case "Keys", "Values", "All":
				if !sorted[n] {
					out = append(out, n.Pos())
				}
			}
		}
		return true
	})
	return out
}

// pkgSel returns Sel when expr is a selector pkgName.Sel on the imported
// package, "" otherwise (always "" when pkgName is "": not imported).
func pkgSel(pkg *Package, expr ast.Expr, pkgName string) string {
	s, ok := expr.(*ast.SelectorExpr)
	if !ok || pkgName == "" {
		return ""
	}
	if x, ok := s.X.(*ast.Ident); ok && x.Name == pkgName && isPackageIdent(pkg, x) {
		return s.Sel.Name
	}
	return ""
}

// isMapType reports whether expr's type is known to be a map. Unknown or
// invalid types (shallow stdlib resolution) report false: detrange fails
// open rather than flagging on guesses.
func isMapType(pkg *Package, expr ast.Expr) bool {
	if pkg.Info == nil {
		return false
	}
	t := pkg.Info.TypeOf(expr)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
