package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, best-effort type-checked package of the module
// under analysis. Files holds the non-test sources in filename order,
// TestFiles the _test.go sources (parsed only, never type-checked); Info
// carries whatever type information the checker could establish (stdlib
// imports resolve shallowly — see the Module doc — so analyzers must treat
// a missing or invalid type as "unknown", never as proof).
type Package struct {
	// Dir is the package directory on disk.
	Dir string
	// Path is the import path within the module (module path for the root
	// package, module path + "/" + relative directory otherwise).
	Path string
	// Name is the package name from the package clauses.
	Name string
	// Files holds the parsed non-test sources, sorted by filename.
	Files []*ast.File
	// Filenames holds the absolute source paths, parallel to Files.
	Filenames []string
	// TestFiles holds the parsed _test.go sources of the directory (both
	// the in-package and the external _test package), sorted by filename.
	TestFiles []*ast.File
	// Info is the (best-effort) type information for Files.
	Info *types.Info
	// Types is the checked package object; incomplete when imports
	// resolved shallowly.
	Types *types.Package

	imports []string
}

// Module is a loaded set of packages sharing one FileSet, the unit every
// analyzer runs over.
//
// Type checking is deliberately self-contained: packages belonging to the
// module are checked from source in dependency order, while every other
// import (the stdlib) resolves to an empty shim package. That keeps sensvet
// free of toolchain shell-outs and makes it fast and deterministic, at the
// cost of shallow stdlib types — a locally declared map[K]V still checks as
// a map (the analyzers' main need) even when K or V involves an unresolved
// import, but a stdlib named map type (http.Header) is invisible. Analyzers
// are written to fail open on unknown types.
type Module struct {
	// Root is the directory containing go.mod (or the fixture root).
	Root string
	// Path is the module path from go.mod (or the synthetic fixture path).
	Path string
	// Fset positions every file of every package.
	Fset *token.FileSet
	// Pkgs holds the loaded packages, sorted by import path.
	Pkgs []*Package
}

// Rel returns pkg's directory relative to the module root ("." for the
// root package) — the coordinate the analyzer scope tables use.
func (m *Module) Rel(pkg *Package) string {
	if pkg.Path == m.Path {
		return "."
	}
	return strings.TrimPrefix(pkg.Path, m.Path+"/")
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule loads every package of the module rooted at root (the
// directory containing go.mod): all directories holding non-test Go files,
// skipping testdata and hidden directories.
func LoadModule(root, modPath string) (*Module, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return LoadDirs(root, modPath, dirs)
}

// LoadDirs loads the given package directories (absolute or relative to
// root) as one module with import paths derived from modPath, then
// type-checks them in dependency order. Directories without Go files are
// skipped silently.
func LoadDirs(root, modPath string, dirs []string) (*Module, error) {
	mod := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}
	seen := make(map[string]bool)
	for _, dir := range dirs {
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(root, dir)
		}
		dir = filepath.Clean(dir)
		if seen[dir] {
			continue
		}
		seen[dir] = true
		pkg, err := parseDir(mod, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			mod.Pkgs = append(mod.Pkgs, pkg)
		}
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	typecheck(mod)
	return mod, nil
}

// parseDir parses the non-test Go files of dir into a Package, or nil when
// the directory holds none.
func parseDir(mod *Module, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(mod.Root, dir)
	if err != nil {
		return nil, err
	}
	path := mod.Path
	if rel != "." {
		path = mod.Path + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Dir: dir, Path: path}
	importSet := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(mod.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
			continue
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, full)
		pkg.Name = f.Name.Name
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	for p := range importSet {
		pkg.imports = append(pkg.imports, p)
	}
	sort.Strings(pkg.imports)
	return pkg, nil
}

// typecheck type-checks the module's packages in dependency order with the
// shim importer. Errors are swallowed by design: analyzers consume whatever
// type facts survive and fail open on the rest.
func typecheck(mod *Module) {
	byPath := make(map[string]*Package, len(mod.Pkgs))
	for _, p := range mod.Pkgs {
		byPath[p.Path] = p
	}
	imp := &shimImporter{byPath: byPath, shims: make(map[string]*types.Package)}
	for _, p := range topoOrder(mod.Pkgs, byPath) {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(error) {}, // best-effort: shim imports error freely
		}
		tpkg, _ := conf.Check(p.Path, mod.Fset, p.Files, info)
		p.Info, p.Types = info, tpkg
	}
}

// topoOrder orders packages so that module-internal imports are checked
// before their importers (unknown or cyclic imports are simply left to the
// shim importer).
func topoOrder(pkgs []*Package, byPath map[string]*Package) []*Package {
	order := make([]*Package, 0, len(pkgs))
	state := make(map[*Package]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(*Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		for _, imp := range p.imports {
			if dep, ok := byPath[imp]; ok && state[dep] == 0 {
				visit(dep)
			}
		}
		state[p] = 2
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return order
}

// shimImporter resolves module-internal imports to the packages checked so
// far and everything else to an empty, complete shim — references into a
// shim fail (swallowed), leaving the affected expressions untyped.
type shimImporter struct {
	byPath map[string]*Package
	shims  map[string]*types.Package
}

// Import implements types.Importer.
func (s *shimImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.byPath[path]; ok && p.Types != nil {
		return p.Types, nil
	}
	if p, ok := s.shims[path]; ok {
		return p, nil
	}
	name := path[strings.LastIndex(path, "/")+1:]
	// Versioned import paths (math/rand/v2) keep the unversioned name.
	if len(name) > 1 && name[0] == 'v' && strings.TrimLeft(name[1:], "0123456789") == "" {
		trimmed := path[:strings.LastIndex(path, "/")]
		name = trimmed[strings.LastIndex(trimmed, "/")+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	s.shims[path] = p
	return p, nil
}
