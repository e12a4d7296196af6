package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// implicitMethods are method names the standard library calls through an
// interface the module never names in a selector: fmt's Stringer,
// GoStringer and Formatter, error and its wrapping protocol, http.Handler,
// the encoding marshalers, sort.Interface, heap.Interface, flag.Value and
// the io interfaces. A method with one of these names is always live.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP":   true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Set": true, "Get": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
}

// deadcode flags exported API of internal/ packages that nothing reaches.
//
// A package-level func, type, var or const is dead when no non-test code
// of the loaded tree refers to it — its own declaration and, for a type,
// its own methods do not count — and no _test.go file of another directory
// refers to it either (a shared test oracle stays). Non-test references are
// resolved through types.Info; test files are matched syntactically, as
// qualified identifiers pkg.Name through their imports.
//
// Methods are matched by name and fail open, because the shim importer
// leaves expressions of stdlib type untyped and their selectors unresolved.
// An exported method of an exported type is live when a selector with its
// name appears in non-test code or in another directory's tests, when the
// standard library calls it implicitly (implicitMethods), or when its type
// is reachable from the root package's exported API.
func deadcode(mod *Module) []Diagnostic {
	byPath := make(map[string]*Package, len(mod.Pkgs))
	for _, p := range mod.Pkgs {
		byPath[p.Path] = p
	}
	used := make(map[string]bool)                    // "path.Name" of referenced package-level objects
	selected := make(map[string]bool)                // method-position selector names in non-test code
	testSelected := make(map[string]map[string]bool) // selector name → test directories using it
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				collectUses(pkg, decl, used, selected)
			}
		}
		for _, f := range pkg.TestFiles {
			collectTestUses(pkg, f, byPath, used, testSelected)
		}
	}
	api := rootReachable(mod)

	var out []Diagnostic
	report := func(id *ast.Ident, kind, name string) {
		out = append(out, Diagnostic{
			Pos:  mod.Fset.Position(id.Pos()),
			Rule: "deadcode",
			Msg:  fmt.Sprintf("%s %s is used by nothing but its own package's tests: delete it or move it into a _test.go file", kind, name),
		})
	}
	for _, pkg := range mod.Pkgs {
		if !strings.HasPrefix(mod.Rel(pkg), "internal/") {
			continue
		}
		live := func(name string) bool { return used[pkg.Path+"."+name] }
		qual := func(name string) string { return pkg.Name + "." + name }
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						if !live(d.Name.Name) {
							report(d.Name, "func", qual(d.Name.Name))
						}
						continue
					}
					recv := receiverName(d.Recv)
					if !ast.IsExported(recv) || implicitMethods[d.Name.Name] || selected[d.Name.Name] ||
						api[pkg.Path+"."+recv] || usedByOtherTests(testSelected[d.Name.Name], pkg.Dir) {
						continue
					}
					report(d.Name, "method", qual(recv+"."+d.Name.Name))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && !live(s.Name.Name) {
								report(s.Name, "type", qual(s.Name.Name))
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && !live(n.Name) {
									report(n, d.Tok.String(), qual(n.Name))
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// collectUses records the package-level objects one top-level declaration
// of pkg refers to, except the declaration's own objects (and, inside a
// method, its receiver type), plus every method-position selector name.
func collectUses(pkg *Package, decl ast.Decl, used, selected map[string]bool) {
	var own map[string]bool
	visit := func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if key := objectKey(pkg.Info.Uses[x]); key != "" && !own[key] {
				used[key] = true
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					return true
				}
			}
			selected[x.Sel.Name] = true
		}
		return true
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		name := d.Name.Name
		if d.Recv != nil {
			name = receiverName(d.Recv)
		}
		own = map[string]bool{pkg.Path + "." + name: true}
		ast.Inspect(d, visit)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			own = make(map[string]bool)
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[pkg.Path+"."+s.Name.Name] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					own[pkg.Path+"."+n.Name] = true
				}
			}
			ast.Inspect(spec, visit)
		}
	}
}

// collectTestUses records what one _test.go file of pkg refers to in other
// module packages: qualified identifiers through its imports go into used,
// every other selector name into testSelected under pkg's directory.
func collectTestUses(pkg *Package, f *ast.File, byPath map[string]*Package, used map[string]bool, testSelected map[string]map[string]bool) {
	imports := make(map[string]string) // local name → import path
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		dep, ok := byPath[path]
		if !ok || dep.Dir == pkg.Dir {
			continue
		}
		name := dep.Name
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if path, ok := imports[id.Name]; ok {
				used[path+"."+sel.Sel.Name] = true
				return true
			}
		}
		if testSelected[sel.Sel.Name] == nil {
			testSelected[sel.Sel.Name] = make(map[string]bool)
		}
		testSelected[sel.Sel.Name][pkg.Dir] = true
		return true
	})
}

// usedByOtherTests reports whether any of dirs differs from dir.
func usedByOtherTests(dirs map[string]bool, dir string) bool {
	return len(dirs) > 1 || (len(dirs) == 1 && !dirs[dir])
}

// objectKey returns "path.Name" for a package-level object of a module
// package, "" for anything else (locals, fields, methods, builtins, nil).
func objectKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiverName returns the base type name of a method receiver (T for
// T, *T, T[P] and *T[P]).
func receiverName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// rootReachable returns the "path.Name" keys of every named type reachable
// from the root package's exported API — through aliases, struct fields
// (exported or embedded), method signatures, parameters and results — whose
// exported methods a library user can therefore call.
func rootReachable(mod *Module) map[string]bool {
	out := make(map[string]bool)
	var root *Package
	for _, p := range mod.Pkgs {
		if p.Path == mod.Path {
			root = p
		}
	}
	if root == nil || root.Types == nil {
		return out
	}
	seen := make(map[types.Type]bool)
	var walk func(types.Type)
	walkTuple := func(t *types.Tuple) {
		for i := 0; i < t.Len(); i++ {
			walk(t.At(i).Type())
		}
	}
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if obj := t.Obj(); obj.Pkg() != nil {
				out[obj.Pkg().Path()+"."+obj.Name()] = true
			}
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
			if args := t.TypeArgs(); args != nil {
				for i := 0; i < args.Len(); i++ {
					walk(args.At(i))
				}
			}
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walkTuple(t.Params())
			walkTuple(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	scope := root.Types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			walk(obj.Type())
		}
	}
	return out
}
