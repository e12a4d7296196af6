package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runCLI executes run with captured output.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestUnknownFormatKeepsOutFile: a bad -format is rejected before -out is
// opened, so an existing file survives byte for byte.
func TestUnknownFormatKeepsOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.txt")
	const old = "previous results\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runCLI(t, "-run", "E01", "-format", "xml", "-out", path)
	if code != 1 || !strings.Contains(stderr, `unknown format "xml"`) {
		t.Errorf("exit %d, stderr %q; want 1 and an unknown-format error", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != old {
		t.Errorf("-out file changed to %q, want %q", got, old)
	}
}

// TestOutputIdenticalAcrossJobs pins the engine's ordering contract at the
// command level: every format writes the same bytes at -jobs 1 and 4.
func TestOutputIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, format := range []string{"table", "csv", "jsonl"} {
		var outs [2]string
		for i, jobs := range []string{"1", "4"} {
			out, stderr, code := runCLI(t, "-run", "E0?", "-scale", "0.15",
				"-timings=false", "-format", format, "-jobs", jobs)
			if code != 0 {
				t.Fatalf("%s -jobs %s: exit %d: %s", format, jobs, code, stderr)
			}
			outs[i] = out
		}
		if outs[0] == "" || outs[0] != outs[1] {
			t.Errorf("%s: output differs between -jobs 1 and 4 (or is empty)", format)
		}
	}
}

// TestTimingsFlag: -timings=false writes no timing line or "done" event,
// and -timings=true writes exactly one per table.
func TestTimingsFlag(t *testing.T) {
	timing := map[string]*regexp.Regexp{
		"table": regexp.MustCompile(`(?m)^\(E0[12] in [^)]+\)$`),
		"jsonl": regexp.MustCompile(`"event":"done"`),
	}
	for _, format := range []string{"table", "jsonl"} {
		for _, on := range []bool{false, true} {
			flag := "-timings=false"
			want := 0
			if on {
				flag, want = "-timings=true", 2
			}
			out, stderr, code := runCLI(t, "-run", "E01,E02", "-scale", "0.05",
				"-format", format, flag)
			if code != 0 {
				t.Fatalf("%s %s: exit %d: %s", format, flag, code, stderr)
			}
			if got := len(timing[format].FindAllString(out, -1)); got != want {
				t.Errorf("%s %s: %d timing records, want %d:\n%s", format, flag, got, want, out)
			}
		}
	}
}
