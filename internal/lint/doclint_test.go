package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// doclintDir writes the given Go files into a fresh package directory and
// returns the doclint findings for it.
func doclintDir(t *testing.T, files map[string]string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadDirs(dir, "p", []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return doclint(mod)
}

// TestDoclintSkipsGeneratedFiles pins the generated-file exemption: an
// undocumented export in a "// Code generated ... DO NOT EDIT." file is
// invisible to doclint, while the same export in a hand-written file of
// the same package is still reported.
func TestDoclintSkipsGeneratedFiles(t *testing.T) {
	diags := doclintDir(t, map[string]string{
		"gen.go": `// Code generated by stubgen; DO NOT EDIT.

package p

func GeneratedUndocumented() {}

type AlsoGenerated struct{}
`,
		"hand.go": `package p

func HandUndocumented() {}
`,
	})
	if len(diags) != 1 || filepath.Base(diags[0].Pos.Filename) != "hand.go" {
		t.Fatalf("doclint findings = %v, want 1 (only the hand-written file)", diags)
	}
}

// TestDoclintGeneratedMarkerMustPrecedePackage guards against
// over-matching: the DO NOT EDIT line only marks a file generated when it
// appears before the package clause (the Go convention ast.IsGenerated
// implements); elsewhere it is an ordinary comment.
func TestDoclintGeneratedMarkerMustPrecedePackage(t *testing.T) {
	diags := doclintDir(t, map[string]string{
		"late.go": `package p

// Code generated by nothing; DO NOT EDIT.

func StillUndocumented() {}
`,
	})
	if len(diags) != 1 {
		t.Fatalf("doclint findings = %v, want 1 (late marker is not a generated file)", diags)
	}
}

// TestDoclintDocumentedClean pins the baseline: documented exports and
// unexported identifiers produce no findings.
func TestDoclintDocumentedClean(t *testing.T) {
	diags := doclintDir(t, map[string]string{
		"ok.go": `package p

// Documented does nothing.
func Documented() {}

func unexported() {}
`,
	})
	if len(diags) != 0 {
		t.Fatalf("doclint findings = %v, want 0", diags)
	}
}
