package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads the fixture module under testdata/mod.
func loadFixture(t *testing.T) *Module {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root, "fixture")
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	return mod
}

var wantRe = regexp.MustCompile(`// want (\w+)`)

// fixtureWants scans the fixture's .go files for `// want <rule>` markers
// and returns the expected "<file>:<line>:<rule>" keys.
func fixtureWants(t *testing.T, mod *Module) map[string]bool {
	t.Helper()
	wants := make(map[string]bool)
	for _, pkg := range mod.Pkgs {
		for _, name := range pkg.Filenames {
			f, err := os.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
					wants[fmt.Sprintf("%s:%d:%s", filepath.Base(name), line, m[1])] = true
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	return wants
}

// TestFixtureDiagnostics runs all analyzers over the fixture module and
// matches the findings against the `// want <rule>` markers, exactly.
func TestFixtureDiagnostics(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod, Options{})

	wants := fixtureWants(t, mod)
	if len(wants) == 0 {
		t.Fatal("fixture has no // want markers — corpus broken")
	}

	var mdDiags []Diagnostic
	got := make(map[string]int)
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, ".md") {
			mdDiags = append(mdDiags, d)
			continue
		}
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule)]++
	}
	for key := range wants {
		if got[key] == 0 {
			t.Errorf("expected a %s finding, got none", key)
		}
	}
	for key, n := range got {
		if !wants[key] {
			t.Errorf("unexpected finding %s (×%d)", key, n)
		}
	}

	// The registry side: exactly one stale-entry finding, for stream 9.
	if len(mdDiags) != 1 {
		t.Fatalf("registry findings = %d (%v), want exactly 1", len(mdDiags), mdDiags)
	}
	if !strings.Contains(mdDiags[0].Msg, "stale registry entry: stream 9") {
		t.Errorf("registry finding = %q, want stale entry for stream 9", mdDiags[0].Msg)
	}
}

// TestFixtureWaiverSuppression pins the waiver mechanics: the valid waiver
// in core suppresses its detrange finding without going stale.
func TestFixtureWaiverSuppression(t *testing.T) {
	mod := loadFixture(t)
	for _, d := range Run(mod, Options{}) {
		if filepath.Base(d.Pos.Filename) == "detrange.go" && d.Rule == "waiverlint" {
			t.Errorf("valid used waiver reported: %s", d)
		}
		if filepath.Base(d.Pos.Filename) == "detrange.go" && d.Rule == "detrange" {
			if strings.Contains(readLine(t, d.Pos.Filename, d.Pos.Line-1), "sensvet:allow") {
				t.Errorf("waived site still reported: %s", d)
			}
		}
	}
}

// readLine returns one line of a file (1-based), "" when out of range.
func readLine(t *testing.T, name string, line int) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if line < 1 || line > len(lines) {
		return ""
	}
	return lines[line-1]
}

// TestMissingRegistry pins the bootstrap failure mode: no registry file is
// itself a finding, not a pass.
func TestMissingRegistry(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod, Options{RegistryPath: filepath.Join(t.TempDir(), "none.md")})
	found := false
	for _, d := range diags {
		if d.Rule == "substreams" && strings.Contains(d.Msg, "registry unreadable") {
			found = true
		}
	}
	if !found {
		t.Error("missing registry produced no finding")
	}
}

// TestGenerateRegistry pins the skeleton generator: every constant stream
// in the fixture appears, wrapper-propagated and helper-position ones
// included, with owners.
func TestGenerateRegistry(t *testing.T) {
	mod := loadFixture(t)
	out := GenerateRegistry(mod)
	for _, want := range []string{
		"| 5 | exp.go |", "| 7 | exp.go |", "| 11 | exp.go |",
		"| 13 | exp.go |", "| 21 | exp.go |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated registry missing %q:\n%s", want, out)
		}
	}
}

// TestModuleClean is the whole-module smoke test: the repository itself
// must be sensvet-clean — every remaining exception is a reasoned waiver.
func TestModuleClean(t *testing.T) {
	root, modPath, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(mod, Options{})
	for _, d := range diags {
		t.Errorf("repository not sensvet-clean: %s", d)
	}
}

// TestWaiversTargetEveryRule pins that each shipped analyzer, deadcode and
// doclint included, is a valid waiver target.
func TestWaiversTargetEveryRule(t *testing.T) {
	for _, want := range []string{"detrange", "detclock", "substreams", "deadcode", "doclint", "waiverlint"} {
		if w := parseWaiver("//sensvet:allow " + want + " — fixture reason"); w.Malformed != "" {
			t.Errorf("waiver for %s is malformed: %s", want, w.Malformed)
		}
	}
}
