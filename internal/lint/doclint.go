package lint

import (
	"go/ast"
	"go/token"
)

// doclint flags every exported identifier without a godoc comment, so a new
// exported symbol without documentation fails the gate instead of rotting
// silently. The rules mirror godoc conventions: an exported function,
// method (on an exported receiver), type, constant or variable needs a doc
// comment on its own declaration or on the enclosing grouped declaration (a
// documented const/var block covers its members). _test.go files and
// generated files (a "// Code generated ... DO NOT EDIT." line before the
// package clause, per the Go convention) are exempt: a generated file's
// docs are the generator's concern, and regenerating would erase any fix.
func doclint(mod *Module) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, name string) {
		out = append(out, Diagnostic{
			Pos:  mod.Fset.Position(pos),
			Rule: "doclint",
			Msg:  "exported " + name + " has no doc comment",
		})
	}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			if ast.IsGenerated(f) {
				continue
			}
			for _, decl := range f.Decls {
				doclintDecl(decl, report)
			}
		}
	}
	return out
}

// doclintDecl reports the undocumented exported identifiers of one
// top-level declaration.
func doclintDecl(decl ast.Decl, report func(token.Pos, string)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return
		}
		if d.Recv != nil && !ast.IsExported(receiverName(d.Recv)) {
			return // methods on unexported types are internal API
		}
		report(d.Pos(), d.Name.Name)
	case *ast.GenDecl:
		if d.Doc != nil {
			return // a documented group covers all of its specs
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), s.Name.Name)
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						report(n.Pos(), n.Name)
					}
				}
			}
		}
	}
}
