package sensnet

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchCompareStrictBaselineGate smoke-tests scripts/bench.sh --compare
// input validation: under BENCH_STRICT=1 a missing or unparsable baseline
// must fail fast (before the benchmark suite runs), never degrade into an
// all-NEW comparison that waves the gate through. The test only exercises
// the pre-suite validation paths, so it completes in milliseconds.
func TestBenchCompareStrictBaselineGate(t *testing.T) {
	script, err := filepath.Abs(filepath.Join("scripts", "bench.sh"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(script); err != nil {
		t.Fatalf("bench.sh not found: %v", err)
	}

	runCompare := func(baseline string) (int, string) {
		t.Helper()
		// The script exits during validation, long before go test -bench
		// would start; the timeout only guards against a regression that
		// lets an invalid baseline reach the suite.
		cmd := exec.Command("sh", script, "--compare", baseline)
		cmd.Env = append(os.Environ(), "BENCH_STRICT=1")
		done := make(chan struct{})
		var out []byte
		var runErr error
		go func() { out, runErr = cmd.CombinedOutput(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatal("bench.sh --compare did not fail fast on an invalid baseline")
		}
		if runErr == nil {
			return 0, string(out)
		}
		ee, ok := runErr.(*exec.ExitError)
		if !ok {
			t.Fatalf("running bench.sh: %v\n%s", runErr, out)
		}
		return ee.ExitCode(), string(out)
	}

	t.Run("missing baseline", func(t *testing.T) {
		code, out := runCompare(filepath.Join(t.TempDir(), "absent.json"))
		if code == 0 {
			t.Fatalf("missing baseline accepted:\n%s", out)
		}
		if !strings.Contains(out, "not found") {
			t.Errorf("missing-baseline error not reported:\n%s", out)
		}
	})

	t.Run("unparsable baseline", func(t *testing.T) {
		garbage := filepath.Join(t.TempDir(), "garbage.json")
		if err := os.WriteFile(garbage, []byte("{\"benchmarks\": []}\nnot json at all\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := runCompare(garbage)
		if code == 0 {
			t.Fatalf("unparsable baseline accepted under BENCH_STRICT=1:\n%s", out)
		}
		if !strings.Contains(out, "no benchmark rows") {
			t.Errorf("unparsable-baseline error not reported:\n%s", out)
		}
	})
}

// TestBenchScriptRecordsGOMAXPROCS runs scripts/bench.sh against a stub
// `go` that prints a canned benchmark run, so the serialization and the
// comparison run in milliseconds. The baseline header must record the
// run's GOMAXPROCS (the -N name suffix; none means 1), --compare must print
// a notice when the pinned count differs from the run's or is missing, and
// the notice must leave the strict allocs gate exactly as it was: passing
// on equal allocs, failing on grown ones.
func TestBenchScriptRecordsGOMAXPROCS(t *testing.T) {
	script, err := filepath.Abs(filepath.Join("scripts", "bench.sh"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stub := func(suffix string) string {
		bin := filepath.Join(dir, "bin"+suffix)
		if err := os.MkdirAll(bin, 0o755); err != nil {
			t.Fatal(err)
		}
		src := "#!/bin/sh\n" +
			"if [ \"$1\" = version ]; then echo 'go version go1.24.0 linux/amd64'; exit 0; fi\n" +
			"echo 'cpu: Stub CPU'\n" +
			"echo 'BenchmarkAlpha" + suffix + "   \t100\t  1000 ns/op\t  64 B/op\t  2 allocs/op'\n" +
			"echo PASS\n"
		if err := os.WriteFile(filepath.Join(bin, "go"), []byte(src), 0o755); err != nil {
			t.Fatal(err)
		}
		return bin
	}
	run := func(bin string, env []string, args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command("sh", append([]string{script}, args...)...)
		cmd.Env = append(os.Environ(), append(env, "PATH="+bin+string(os.PathListSeparator)+os.Getenv("PATH"))...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running bench.sh: %v\n%s", err, out)
		}
		return ee.ExitCode(), string(out)
	}
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, tc := range []struct{ suffix, want string }{{"-8", `"gomaxprocs": 8`}, {"", `"gomaxprocs": 1`}} {
		out := filepath.Join(dir, "pin"+tc.suffix+".json")
		if code, log := run(stub(tc.suffix), nil, out); code != 0 {
			t.Fatalf("bench.sh failed (%d):\n%s", code, log)
		}
		body, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), tc.want) || !strings.Contains(string(body), `"name": "BenchmarkAlpha"`) {
			t.Errorf("suffix %q: baseline lacks %s or the row:\n%s", tc.suffix, tc.want, body)
		}
	}

	row := func(allocs string) string {
		return `    {"name": "BenchmarkAlpha", "ns_per_op": 1000, "bytes_per_op": 64, "allocs_per_op": ` + allocs + "}\n"
	}
	strict := []string{"BENCH_STRICT_ALLOCS=1"}
	bin := stub("-8")
	for _, tc := range []struct {
		name, header, allocs string
		notice               bool
		code                 int
	}{
		{"same count", `"gomaxprocs": 8,`, "2", false, 0},
		{"other count", `"gomaxprocs": 2,`, "2", true, 0},
		{"no count", ``, "2", true, 0},
		{"other count, allocs grew", `"gomaxprocs": 2,`, "1", true, 1},
	} {
		base := write("base.json", "{\n  "+tc.header+"\n  \"benchmarks\": [\n"+row(tc.allocs)+"  ]\n}\n")
		code, out := run(bin, strict, "--compare", base)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d:\n%s", tc.name, code, tc.code, out)
		}
		if got := strings.Contains(out, "notice:"); got != tc.notice {
			t.Errorf("%s: notice printed = %v, want %v:\n%s", tc.name, got, tc.notice, out)
		}
	}
}
