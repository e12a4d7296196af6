// Command sensvet is the project-specific static-analysis gate: it
// enforces the determinism, RNG-substream, dead-API, doc-comment and
// waiver contracts of the repository. See internal/lint for the analyzers:
//
//   - detrange: map ranges and maps.Keys/Values/All in result-producing
//     packages (slices.Sorted(maps.Keys(m)) is the one allowed form)
//   - detclock: wall-clock / global math/rand outside the allowlist
//   - substreams: constant RNG streams vs the docs/substreams.md registry
//   - deadcode: exported internal/ API reached only by its own package's tests
//   - doclint: exported identifiers without a godoc comment
//   - waiverlint: //sensvet:allow hygiene and stale-waiver detection
//
// Usage:
//
//	sensvet [-registry file] [dir ...]
//	sensvet -gen-substreams
//
// Each argument is a package directory; an argument ending in /... is
// walked recursively (testdata and hidden directories are skipped; with no
// arguments, ./...). The whole module is always loaded — cross-package
// rules need it — and the arguments select which directories' findings are
// reported. Exit status 1 when findings remain after waivers, 2 on load
// errors.
//
// -gen-substreams prints a registry table skeleton built from the current
// code (owners filled in, purposes TODO) — the bootstrap and repair tool
// for docs/substreams.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("sensvet", flag.ContinueOnError)
	fl.SetOutput(stderr)
	genSubstreams := fl.Bool("gen-substreams", false, "print a substream registry skeleton from the code and exit")
	registry := fl.String("registry", "", "substream registry path (default <module>/docs/substreams.md)")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	root, modPath, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintf(stderr, "sensvet: %v\n", err)
		return 2
	}
	mod, err := lint.LoadModule(root, modPath)
	if err != nil {
		fmt.Fprintf(stderr, "sensvet: %v\n", err)
		return 2
	}

	if *genSubstreams {
		fmt.Fprint(stdout, lint.GenerateRegistry(mod))
		return 0
	}

	report, err := reportDirs(fl.Args())
	if err != nil {
		fmt.Fprintf(stderr, "sensvet: %v\n", err)
		return 2
	}

	diags := lint.Run(mod, lint.Options{RegistryPath: *registry})
	bad := 0
	for _, d := range diags {
		// Registry findings carry the registry's .md path and are always
		// reported; source findings are filtered by the directory args.
		if !strings.HasSuffix(d.Pos.Filename, ".md") {
			dir, err := filepath.Abs(filepath.Dir(d.Pos.Filename))
			if err != nil || !report[dir] {
				continue
			}
		}
		fmt.Fprintf(stdout, "%s\n", d)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "sensvet: %d finding(s)\n", bad)
		return 1
	}
	return 0
}

// reportDirs expands the go-style directory arguments (dir, dir/...,
// default ./...) into the set of absolute directories whose findings are
// reported.
func reportDirs(args []string) (map[string]bool, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	report := make(map[string]bool)
	for _, a := range args {
		if rest, ok := strings.CutSuffix(a, "/..."); ok {
			if rest == "" || rest == "." {
				rest = "."
			}
			if err := filepath.WalkDir(rest, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != rest && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				abs, err := filepath.Abs(path)
				if err != nil {
					return err
				}
				report[abs] = true
				return nil
			}); err != nil {
				return nil, err
			}
		} else {
			abs, err := filepath.Abs(a)
			if err != nil {
				return nil, err
			}
			report[abs] = true
		}
	}
	return report, nil
}
