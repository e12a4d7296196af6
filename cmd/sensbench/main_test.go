package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-pin the small-input digests in testdata/digests.json")

// small are the per-workload arguments of the test runs: inputs small
// enough that a run takes about a second. Their digests are pinned next
// to the full-size ones.
var small = map[string][]string{
	"sens-sweep":    {"-size", "0.2"},
	"build-1m":      {"-size", "0.04"},
	"serve-route":   {"-size", "0.2"},
	"serve-stretch": {"-size", "0.2"},
	"scenarios":     {"-only", "E01,E02"},
}

const goldenDir = "../../internal/experiments/testdata"

// runBench runs sensbench in-process and parses its two output lines.
func runBench(t *testing.T, args ...string) (int, environment, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sensbench %v: exit %d, want 2 output lines, got %q (stderr %s)", args, code, stdout.String(), stderr.String())
	}
	var env map[string]environment
	var res result
	if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
		t.Fatalf("environment line: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return code, env["sensbench"], res
}

// smallArgs returns the arguments of a small run of workload w.
func smallArgs(w, digests, golden string, extra ...string) []string {
	args := append([]string{"-workload", w, "-seconds", "0.5", "-digests", digests, "-golden-dir", golden}, small[w]...)
	return append(args, extra...)
}

// TestWorkloadsEmitEveryMetric runs every workload on small inputs,
// untraced and traced, and requires a correct result carrying exactly the
// metrics BENCHMARK.json names, with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []string{"0", "1"} {
			extra := []string{"-trace", trace}
			if *update && trace == "0" {
				extra = append(extra, "-update-digests")
			}
			code, env, res := runBench(t, smallArgs(w, "testdata/digests.json", goldenDir, extra...)...)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: exit %d, correct %v, %d/%d failed: %v", w, trace, code, res.Correct, res.Failed, res.Attempted, env.Failures)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

// TestDigestsRepeat requires two runs at one seed to produce the same
// output digest, and the digests the tests and the full-size runs check to
// be pinned.
func TestDigestsRepeat(t *testing.T) {
	data, err := os.ReadFile("testdata/digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	for _, w := range sortedKeys(workloads) {
		if _, ok := pins[w+"/seed=2026/size=1"]; !ok {
			t.Errorf("%s: no digest pinned at the default settings", w)
		}
		_, first, _ := runBench(t, smallArgs(w, "testdata/digests.json", goldenDir, "-seed", "7")...)
		_, second, _ := runBench(t, smallArgs(w, "testdata/digests.json", goldenDir, "-seed", "7")...)
		if first.Digest != second.Digest {
			t.Errorf("%s: digests %s and %s at one seed", w, first.Digest, second.Digest)
		}
	}
}

// TestCorruptDigestFails pins a wrong digest and requires the run to fail.
func TestCorruptDigestFails(t *testing.T) {
	data, err := os.ReadFile("testdata/digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	key := "sens-sweep/seed=2026/size=0.2"
	if _, ok := pins[key]; !ok {
		t.Fatalf("no digest pinned for %s", key)
	}
	pins[key] = "0000000000000000"
	path := filepath.Join(t.TempDir(), "digests.json")
	data, _ = json.Marshal(pins)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, res := runBench(t, smallArgs("sens-sweep", path, goldenDir)...)
	if code != 1 || res.Correct || res.Failed == 0 {
		t.Errorf("corrupted digest: exit %d, correct %v, failed %d; want exit 1 and a failure", code, res.Correct, res.Failed)
	}
}

// TestCorruptGoldenFails changes one golden table and requires the
// scenarios run at the golden settings to fail.
func TestCorruptGoldenFails(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"E01", "E02"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, "golden_"+id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if id == "E02" {
			data = append(data, '\n')
		}
		if err := os.WriteFile(filepath.Join(dir, "golden_"+id+".txt"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, env, res := runBench(t, smallArgs("scenarios", "testdata/digests.json", dir)...)
	if code != 1 || res.Correct || res.Failed != 1 || !strings.Contains(strings.Join(env.Failures, "\n"), "E02") {
		t.Errorf("corrupted golden: exit %d, correct %v, failures %v; want exit 1 and one E02 failure", code, res.Correct, env.Failures)
	}
}

// TestBenchmarkJSON requires BENCHMARK.json to name the workloads and the
// metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, sortedKeys(workloads)) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, sortedKeys(workloads))
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{def.EndToEnd, endToEnd}, {def.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), program reports %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestCompareVerdicts checks the compare rule on made-up runs.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	writeRuns := func(name string, metrics map[string][]float64) string {
		var buf bytes.Buffer
		for i := 0; i < 10; i++ {
			r := record{environment: environment{Workload: "w"}, result: result{Metrics: map[string]metric{}}}
			for m, vs := range metrics {
				r.Metrics[m] = metric{Value: vs[i], Unit: "ms"}
			}
			line, _ := json.Marshal(r)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 50, 150, 90, 110, 100}
	base := writeRuns("base.jsonl", map[string][]float64{"p50_ms": steady, "tail_ms": steady, "heap_mb": steady, "setup_s": noisy})
	head := writeRuns("head.jsonl", map[string][]float64{"p50_ms": shift(steady, 0.8), "tail_ms": shift(steady, 1.2), "heap_mb": shift(steady, 1.01), "setup_s": noisy})
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "setup_s", "better": "lower", "bound": 0.25},
		{"name": "p50_ms", "better": "lower", "bound": 0.1},
		{"name": "tail_ms", "better": "lower", "bound": 0.15},
		{"name": "heap_mb", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"compare", "-bench", bench, base, head}, &stdout, &stderr); code != 0 {
		t.Fatalf("compare: exit %d: %s", code, stderr.String())
	}
	for metric, want := range map[string]string{"p50_ms": "improved", "tail_ms": "worse", "heap_mb": "no-worse", "setup_s": "unresolved"} {
		found := false
		for _, line := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == metric {
				found = true
				if f[len(f)-1] != want {
					t.Errorf("%s: verdict %q, want %q", metric, f[len(f)-1], want)
				}
			}
		}
		if !found {
			t.Errorf("%s: no row in\n%s", metric, stdout.String())
		}
	}
}
