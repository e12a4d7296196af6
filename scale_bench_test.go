// Million-node scale-tier benchmarks (ROADMAP "scale tier"). Each target
// runs the full pipeline at ~10⁶ Poisson points: streaming deployment,
// pair-free grid UDG, tile-sharded SENS build, and a short lifetime run over
// the resulting network. They are gated behind BENCH_1M=1 (use `make
// bench-1m`) so the default `go test -bench` suite — and `make ci` on the
// 1-CPU verify box — stays fast; scripts/bench.sh treats absent 1M entries
// as skipped rather than missing when diffing against BENCH_baseline.json.
//
// Beyond ns/op and allocs/op, each target reports the memory-budget metrics
// of internal/memprof: live-heap growth across one build (live-B/op) and
// the process peak RSS (peakRSS-B; a lifetime high-water mark, so it bounds
// the largest build of the process).
package sensnet_test

import (
	"os"
	"testing"

	sensnet "repro"
	"repro/internal/memprof"
)

// scale1MSide is the deployment box side of the 1M tier: λ=16 over a
// 250×250 box is one million expected points.
const scale1MSide = 250.0

// scale1MGenSide is the generation-tile side for the streamed deployment:
// ~10⁴ points per tile, ~4k tiles.
const scale1MGenSide = 25.0

func gate1M(b *testing.B) {
	b.Helper()
	if os.Getenv("BENCH_1M") == "" {
		b.Skip("million-node tier: set BENCH_1M=1 (or use `make bench-1m`)")
	}
}

// sink1M keeps each benchmark's last result live across the closing heap
// sample, so live-B/op reports the size of the built structure rather than
// zero (everything collected). reportMem clears it.
var sink1M any

// reportMem attaches the scale-tier memory metrics: live-heap growth per
// operation between the two samples, and the process peak RSS.
func reportMem(b *testing.B, before memprof.HeapSample) {
	b.Helper()
	d := memprof.Delta(before, memprof.ReadHeap())
	sink1M = nil
	live := float64(d.LiveBytes) / float64(b.N)
	if live < 0 {
		live = 0
	}
	b.ReportMetric(live, "live-B/op")
	if rss, ok := memprof.PeakRSS(); ok {
		b.ReportMetric(float64(rss), "peakRSS-B")
	}
}

// BenchmarkDeploySoA1M streams a million-point Poisson deployment into SoA
// slabs — the exact-size two-pass generator.
func BenchmarkDeploySoA1M(b *testing.B) {
	gate1M(b)
	box := sensnet.Box(scale1MSide, scale1MSide)
	b.ReportAllocs()
	before := memprof.ReadHeap()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		s := sensnet.DeploySoA(box, 16, sensnet.Seed(13), scale1MGenSide)
		n = s.Len()
		sink1M = s
	}
	b.StopTimer()
	reportMem(b, before)
	b.ReportMetric(float64(n), "points")
	if n < 900_000 {
		b.Fatalf("deployment too small: %d", n)
	}
}

// BenchmarkUDGGrid1M builds UDG(2, λ) over a million points with the
// pair-free bucket-grid enumeration (~25M undirected edges at mean degree
// ~50).
func BenchmarkUDGGrid1M(b *testing.B) {
	gate1M(b)
	box := sensnet.Box(scale1MSide, scale1MSide)
	pts := sensnet.DeploySoA(box, 16, sensnet.Seed(13), scale1MGenSide).Points(nil)
	b.ReportMetric(float64(len(pts)), "points")
	b.ReportAllocs()
	before := memprof.ReadHeap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sensnet.UDGGrid(pts, 1)
		if g.EdgeCount == 0 {
			b.Fatal("empty UDG")
		}
		sink1M = g
	}
	b.StopTimer()
	reportMem(b, before)
}

// BenchmarkBuildUDGSens1M runs the SENS construction (tile-sharded) over a
// million points (elections + border-stitched wiring; base graph skipped as
// in the other SENS construction benchmarks).
func BenchmarkBuildUDGSens1M(b *testing.B) {
	gate1M(b)
	box := sensnet.Box(scale1MSide, scale1MSide)
	pts := sensnet.DeploySoA(box, 16, sensnet.Seed(13), scale1MGenSide).Points(nil)
	spec := sensnet.DefaultUDGSpec()
	b.ReportMetric(float64(len(pts)), "points")
	b.ReportAllocs()
	before := memprof.ReadHeap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := sensnet.BuildUDGSens(pts, box, spec, sensnet.Options{SkipBase: true})
		if err != nil || len(net.Members) == 0 {
			b.Fatalf("bad build: %v", err)
		}
		sink1M = net
	}
	b.StopTimer()
	reportMem(b, before)
}

// BenchmarkLifetime1M runs a short Q01-style lifetime simulation (64 rounds,
// quadrant sinks) over the million-point sharded SENS network.
func BenchmarkLifetime1M(b *testing.B) {
	gate1M(b)
	box := sensnet.Box(scale1MSide, scale1MSide)
	pts := sensnet.DeploySoA(box, 16, sensnet.Seed(13), scale1MGenSide).Points(nil)
	net, err := sensnet.BuildUDGSens(pts, box, sensnet.DefaultUDGSpec(), sensnet.Options{SkipBase: true})
	if err != nil {
		b.Fatal(err)
	}
	sinks := sensnet.LifetimeSinks(net)
	spec := sensnet.DefaultLifetimeSpec()
	spec.MaxRounds = 64
	b.ReportMetric(float64(len(net.Members)), "members")
	b.ReportAllocs()
	before := memprof.ReadHeap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sensnet.SimulateLifetime(net, sinks, spec, sensnet.Seed(i))
		if err != nil || rep.Rounds == 0 {
			b.Fatalf("bad run: %v", err)
		}
		sink1M = rep
	}
	b.StopTimer()
	reportMem(b, before)
}
