package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json compare reads.
type benchDef struct {
	EndToEnd []metricBound `json:"end_to_end"`
	PerLayer []metricBound `json:"per_layer"`
}

// metricBound is one metric's direction and, for an end-to-end metric,
// the share of the base median by which it may get worse.
type metricBound struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// compare implements `sensbench compare [-bench file] base.jsonl
// head.jsonl`: for every (metric, workload) pair found in both files it
// prints each side's median and quartiles, the share of pairs the head
// wins, and a verdict. Runs pair up in file order per workload, so write
// both files from alternating runs over the same seeds.
//
// Verdicts follow the benchmark's rules. improved: at least ten pairs, the
// head wins nine tenths of them (ties count for neither) and the medians
// differ by more than the base's quartile spread. worse: the head median is
// worse than the base median by more than the bound (per-layer metrics have
// none: the base wins nine tenths of the pairs by more than the spread).
// no-worse: neither, and the base spread is within the bound (or every
// head run beats every base run). unresolved: anything else.
func compare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sensbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: sensbench compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	var def benchDef
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err != nil {
		fmt.Fprintf(stderr, "sensbench compare: %v\n", err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "sensbench compare: %v\n", err)
		return 2
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "sensbench compare: %v\n", err)
		return 2
	}

	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tbase median [q1, q3]\thead median [q1, q3]\thead wins\tverdict")
	for _, m := range append(slices.Clone(def.EndToEnd), def.PerLayer...) {
		for _, w := range sortedKeys(base) {
			bv, hv := values(base[w], m.Name), values(head[w], m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			wins, pairs, v := verdict(bv, hv, m)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%s\n", m.Name, w, quartiles(bv), quartiles(hv), wins, pairs, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "sensbench compare: %v\n", err)
		return 2
	}
	return 0
}

// verdict applies the rule compare documents to one (metric, workload)
// pair.
func verdict(base, head []float64, m metricBound) (wins, pairs int, v string) {
	sign := 1.0 // worse means larger
	if m.Better == "higher" {
		sign = -1
	}
	pairs = min(len(base), len(head))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (head[i] - base[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	bm, spread := median(base), quantile(base, 0.75)-quantile(base, 0.25)
	worse := sign * (median(head) - bm)
	bounded := m.Bound != nil
	allBetter := sign*(maxOf(head, sign)-maxOf(base, -sign)) < 0
	switch {
	case pairs >= 10 && wins*10 >= 9*pairs && -worse > spread:
		return wins, pairs, "improved"
	case bounded && worse > *m.Bound*math.Abs(bm),
		!bounded && losses*10 >= 9*pairs && worse > spread:
		return wins, pairs, "worse"
	case bounded && (spread <= *m.Bound*math.Abs(bm) || allBetter),
		!bounded && worse <= 0:
		return wins, pairs, "no-worse"
	}
	return wins, pairs, "unresolved"
}

// maxOf returns the largest of xs by sign·x: the worst run when sign is
// the metric's worse direction, the best when it is the opposite.
func maxOf(xs []float64, sign float64) float64 {
	best := xs[0]
	for _, x := range xs {
		if sign*x > sign*best {
			best = x
		}
	}
	return best
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}

// readRecords reads an -out file and groups its runs by workload, in file
// order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: not a sensbench record (%v)", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// values returns the metric's value in each run that reports it.
func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
