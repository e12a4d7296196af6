// Command sensbench is the repository's end-to-end and per-layer benchmark.
// One run executes one workload for a fixed time and prints, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics:
//
//	sensbench -workload sens-sweep -seed 7 -seconds 20 -trace 0
//
// Workloads: sens-sweep (Monte-Carlo UDG-SENS builds at 10⁴ points),
// build-1m (the 10⁶-point scale-tier build), serve-route and serve-stretch
// (open-loop HTTP load on an in-process sensnetd server) and scenarios
// (the registered scenario suite). -trace 0 reports the end-to-end metrics,
// -trace 1 the per-layer metrics, measured with spans around each layer
// call. The line before the result records the run's settings and
// machine. Every run checks its outputs after timing; a failed check
// makes correct false and the exit code 1.
//
//	sensbench compare base.jsonl head.jsonl
//
// compares two sets of runs written with -out (see compare.go).
//
// See README.md for the workloads, the metrics and how to re-pin the
// output digests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/memprof"
	"repro/internal/stats"
)

// defaultSeed is the seed of the scenario goldens; the pinned digests are
// taken at it.
const defaultSeed = 2026

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"sens-sweep":    runSweep,
	"build-1m":      runBuild1M,
	"serve-route":   func(b *bench) error { return runServe(b, routeLoad) },
	"serve-stretch": func(b *bench) error { return runServe(b, stretchLoad) },
	"scenarios":     runScenarios,
}

// bench is the state of one run: its settings, the tracer (nil when
// untraced), the metrics measured so far and the failed checks.
type bench struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	size      float64
	conns     int
	goldenDir string
	only      string
	tr        *tracer

	metrics   map[string]float64
	attempted int
	failures  []string
	dig       hash.Hash64
}

// fail records a failed operation or check.
func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// check records a failure unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.fail(format, args...)
	}
}

// traced returns the tracer for operation i: in a traced run odd
// operations carry spans and even ones do not, so the run measures its own
// tracing overhead.
func (b *bench) traced(i int) *tracer {
	if i%2 == 1 {
		return b.tr
	}
	return nil
}

// opTimes collects per-operation times in ms, split by whether the
// operation was traced, and counts allocations on the untraced ones of a
// traced run.
type opTimes struct {
	plain, traced []float64
	allocs        allocMeter
}

// measure runs op as operation i, with a tracer when the operation is
// traced, and records its time unless it failed. In a traced run it
// counts the allocations of the untraced operations.
func (o *opTimes) measure(b *bench, i int, op func(tr *tracer) error) (time.Duration, error) {
	tr := b.traced(i)
	meter := b.tr != nil && tr == nil
	if meter {
		o.allocs.start()
	}
	t0 := time.Now()
	err := op(tr)
	d := time.Since(t0)
	if meter {
		o.allocs.stop(1)
	}
	if err == nil {
		o.add(tr, float64(d.Nanoseconds())/1e6)
	}
	return d, err
}

func (o *opTimes) add(tr *tracer, ms float64) {
	if tr != nil {
		o.traced = append(o.traced, ms)
	} else {
		o.plain = append(o.plain, ms)
	}
}

// report sets p50_ms and, in a traced run, the tail at quantile tail and
// the trace and allocation metrics.
func (o *opTimes) report(b *bench, tail float64) {
	b.metrics["p50_ms"] = median(o.plain)
	if b.tr != nil {
		b.metrics["e2e.tail_ms"] = quantile(o.plain, tail)
		b.metrics["trace.p50_ms"] = median(o.traced)
		b.metrics["trace.overhead_ms"] = median(o.traced) - median(o.plain)
		o.allocs.report(b)
	}
}

// setupRuns is how many set-ups a run times; setup_s is their median.
const setupRuns = 5

// setup calls fn(0) once untimed, then times fn(1) … fn(setupRuns), each
// starting from a collected heap, and reports the median as setup_s. The
// untimed call pays for what only a process's first set-up does: growing
// the heap from the kernel and opening connections.
func (b *bench) setup(fn func(i int) error) error {
	var times []float64
	for i := 0; i <= setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if i > 0 {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	b.metrics["setup_s"] = median(times)
	return nil
}

// allocMeter sums heap allocations over the operations it brackets: the
// whole process's, so a request's count includes client and server.
type allocMeter struct {
	ops            int
	mallocs, bytes uint64
	before         runtime.MemStats
}

func (a *allocMeter) start() { runtime.ReadMemStats(&a.before) }

// stop ends a bracket that held ops operations.
func (a *allocMeter) stop(ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	a.ops += ops
	a.mallocs += after.Mallocs - a.before.Mallocs
	a.bytes += after.TotalAlloc - a.before.TotalAlloc
}

func (a *allocMeter) report(b *bench) {
	if a.ops > 0 {
		b.metrics["mem.allocs_per_op"] = float64(a.mallocs) / float64(a.ops)
		b.metrics["mem.bytes_per_op"] = float64(a.bytes) / float64(a.ops)
	}
	if rss, ok := memprof.PeakRSS(); ok {
		b.metrics["mem.peak_rss_mb"] = float64(rss) / 1e6
	}
}

// setHeap reports the live heap after garbage collection; callers keep the
// workload's structures referenced across the call.
func (b *bench) setHeap() {
	runtime.GC() // a second cycle also empties the sync.Pool victim caches
	b.metrics["heap_mb"] = float64(memprof.ReadHeap().HeapAlloc) / 1e6
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return stats.Quantile(s, q)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is the line printed before the result: what ran, where, and
// which checks failed.
type environment struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Size       float64  `json:"size"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Conns      int      `json:"conns"`
	NumCPU     int      `json:"nproc"`
	GoVersion  string   `json:"go"`
	CPU        string   `json:"cpu"`
	Digest     string   `json:"digest"`
	Failures   []string `json:"failures,omitempty"`
}

// record is one line of an -out file: the settings and the result.
type record struct {
	environment
	result
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one workload (or the compare subcommand) and returns the
// exit code: 0 when every check passed, 1 when one failed, 2 when the run
// could not be made.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("sensbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: sens-sweep | build-1m | serve-route | serve-stretch | scenarios")
	seed := fs.Uint64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "measurement time of the run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	traceDir := fs.String("trace-dir", "", "directory a traced run writes its spans to (none if empty)")
	size := fs.Float64("size", 1, "scale of the inputs: box sides and the scenario scale are multiplied by it")
	digests := fs.String("digests", "cmd/sensbench/testdata/digests.json", "pinned output digests")
	update := fs.Bool("update-digests", false, "write this run's output digest into -digests")
	goldenDir := fs.String("golden-dir", "internal/experiments/testdata", "scenario golden tables")
	only := fs.String("only", "", "comma-separated scenario IDs, names or tag: patterns (scenarios workload)")
	out := fs.String("out", "", "append the settings and result of the run to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *size <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "sensbench: bad arguments (workload %q, seconds %v, size %v, trace %d)\n", *workload, *seconds, *size, *trace)
		return 2
	}

	procs := min(2, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	b := &bench{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		size:      *size,
		conns:     procs,
		goldenDir: *goldenDir,
		only:      *only,
		metrics:   make(map[string]float64),
		dig:       fnv.New64a(),
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "sensbench: %s: %v\n", b.workload, err)
		return 2
	}
	digest := fmt.Sprintf("%016x", b.dig.Sum64())
	if err := b.checkDigest(*digests, digest, *update); err != nil {
		fmt.Fprintf(stderr, "sensbench: %v\n", err)
		return 2
	}
	if b.tr != nil && *traceDir != "" {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-%d.json", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "sensbench: writing spans: %v\n", err)
			return 2
		}
	}

	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
	}
	res := result{Attempted: max(b.attempted, 1), Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if (!ok && b.tr == nil) || math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s not measured", d.name)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Failed = len(b.failures)
	res.Correct = res.Failed == 0
	env := environment{
		Workload: b.workload, Seed: b.seed, Size: b.size, Seconds: *seconds, Trace: b.tr != nil,
		GOMAXPROCS: procs, Conns: b.conns, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		CPU: cpuModel(), Digest: digest, Failures: b.failures,
	}
	for _, f := range b.failures {
		fmt.Fprintf(stderr, "sensbench: %s: check failed: %s\n", b.workload, f)
	}
	envLine, _ := json.Marshal(map[string]environment{"sensbench": env})
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "sensbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n%s\n", envLine, resLine)
	if *out != "" {
		if err := appendRecord(*out, record{env, res}); err != nil {
			fmt.Fprintf(stderr, "sensbench: %v\n", err)
			return 2
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// checkDigest compares the run's output digest with the pinned one for its
// settings, or pins it when update is set. Runs at unpinned settings (any
// seed the pins do not name) check nothing here.
func (b *bench) checkDigest(path, got string, update bool) error {
	pins := make(map[string]string)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading digests: %w", err)
	}
	if err := json.Unmarshal(data, &pins); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	key := fmt.Sprintf("%s/seed=%d/size=%g", b.workload, b.seed, b.size)
	if b.only != "" {
		key += "/only=" + b.only
	}
	if update {
		pins[key] = got
		data, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if want, ok := pins[key]; ok && want != got {
		b.fail("output digest %s is %s, pinned %s", key, got, want)
	}
	return nil
}

// appendRecord appends one JSON line to path.
func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
