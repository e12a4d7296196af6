GO ?= go

.PHONY: verify test test-race bench bench-1m baseline bench-compare ci sensvet scenarios fuzz-smoke e2e

# verify is the tier-1 gate: gofmt, build (including every example), vet,
# full test suite. The gofmt check covers every Go file outside testdata/
# directories (fixture sources keep deliberate layouts) and the
# benchmark's build directory. cmd/sensbench is a module of its own that
# root ./... skips; it is built, vetted and tested explicitly, so a core
# API change that breaks the benchmark harness, or drift in its pinned
# digests and goldens, fails here and not only in the benchmark pipeline.
verify:
	@out=$$(find . -path ./.bench_build -prune -o -name testdata -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) build ./...
	$(GO) build ./examples/...
	$(GO) -C cmd/sensbench build -o /dev/null ./...
	$(GO) vet ./...
	$(GO) -C cmd/sensbench vet ./...
	$(GO) test ./...
	$(GO) -C cmd/sensbench test ./...

# sensvet is the one static-analysis gate (see cmd/sensvet and DESIGN.md
# "Static-analysis gates"): map iteration in the result packages (every map
# range and maps.Keys/Values/All, the one exception being
# slices.Sorted(maps.Keys(m))), wall-clock and
# global-RNG use outside the serving layer, the RNG substream registry
# cross-check, exported internal/ API that nothing but its own package's
# tests reaches (deadcode), exported identifiers without a godoc comment
# (doclint; generated files exempt), and waiver hygiene. The tree must stay
# sensvet-clean; deliberate exceptions carry
# `//sensvet:allow <rule> — <reason>` waivers.
sensvet:
	$(GO) run ./cmd/sensvet ./...

# ci is the full pre-merge pipeline: the tier-1 gate (build + vet + test),
# the sensvet static-analysis gate (determinism, dead internal API and doc
# comments), the race-detector pass over every internal and cmd package,
# the short-mode daemon e2e flow under -race, the fuzz smoke, and a
# benchmark run diffed against the checked-in baseline, flagging >10% time
# regressions. Set BENCH_STRICT=1 (time) or BENCH_STRICT_ALLOCS=1 (allocs)
# to turn flags into a non-zero exit.
ci: verify sensvet test-race e2e fuzz-smoke bench-compare

# scenarios emits per-scenario wall times (JSON) from a reduced-scale
# engine run — the experiment-level perf trajectory.
scenarios:
	scripts/bench.sh --scenarios

test:
	$(GO) test ./...

# test-race runs every internal and cmd package under the race detector in
# short mode — not just a hand-picked concurrency list, so a package that
# grows its first goroutine is covered the day it does. Short mode: race
# instrumentation makes the golden-scale suites several times slower, and
# the data-race surface is fully exercised by the short tests. The daemon's
# full e2e flow is excluded here (minutes under -race) and covered by the
# dedicated e2e target.
test-race:
	$(GO) test -race -short -skip 'TestE2E' ./internal/... ./cmd/...

# e2e runs the daemon acceptance flow under the race detector in short
# mode: build a 10k-point UDG-SENS snapshot over HTTP, drive a mixed
# route/stretch stream from the load generator at GOMAXPROCS 1 and 8, and
# byte-compare every response against the measurement engine's direct
# answers. (Default-mode `go test ./internal/serve` runs the same flow
# with the full 1k-query stream, without race instrumentation.)
e2e:
	$(GO) test -race -short -run 'TestE2E' -timeout 15m ./internal/serve

# fuzz-smoke runs the fuzz targets for a few seconds each: the
# fault-schedule builder must never panic and alive-sets must shrink
# monotonically for any input; trajectory sampling must keep every position
# inside the box and the kinetic spatial index consistent with brute force
# under arbitrary move sequences; the kinetic UDG-SENS maintainer must equal
# a from-scratch build after every move or removal, boundary points
# included; the cache-blocked CSR build must equal the two-pass oracle for
# edge multisets at vertex-block boundaries, on the dedup and unique paths
# (5 s); target-bounded Dijkstra and BFS sweeps must equal the full sweeps
# and the closure-weighted oracle on every target, for arbitrary edge
# multisets and target sets (5 s); the grid UDG builder must never panic
# and must equal the O(n²) brute force on point sets with duplicates,
# pairs at distance exactly r, far outliers and NaN/±Inf coordinates (5 s);
# the kinetic HNG maintainer must equal a from-scratch Rebuild after every
# move, removal or batched round, coincident and box-boundary points
# included, and a round must equal its events applied one at a time (5 s;
# 50 s in all). Ten seconds is a smoke test, not a campaign — run longer
# fuzzes with 'go test ./internal/fault -fuzz=FuzzSchedule', 'go test
# ./internal/mobility -fuzz=FuzzTrajectory', 'go test ./internal/core
# -fuzz=FuzzKinetic', 'go test ./internal/graph -fuzz=FuzzCSR', 'go test
# ./internal/graph -fuzz=FuzzBoundedSweep', 'go test ./internal/rgg
# -fuzz=FuzzUDGGrid' or 'go test ./internal/hng -fuzz=FuzzHNGKinetic'
# directly.
fuzz-smoke:
	$(GO) test ./internal/fault -run='^$$' -fuzz=FuzzSchedule -fuzztime=10s
	$(GO) test ./internal/mobility -run='^$$' -fuzz=FuzzTrajectory -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzKinetic -fuzztime=10s
	$(GO) test ./internal/graph -run='^$$' -fuzz=FuzzCSR -fuzztime=5s
	$(GO) test ./internal/graph -run='^$$' -fuzz=FuzzBoundedSweep -fuzztime=5s
	$(GO) test ./internal/rgg -run='^$$' -fuzz=FuzzUDGGrid -fuzztime=5s
	$(GO) test ./internal/hng -run='^$$' -fuzz=FuzzHNGKinetic -fuzztime=5s

# bench runs every benchmark once with allocation reporting — the quick
# "did I regress the pipeline" check.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./...

# bench-1m runs the million-node scale tier (streaming deployment,
# pair-free grid UDG, tile-sharded SENS build, short lifetime run) with the
# memory-budget metrics. Minutes of wall time on the 1-CPU box, so it is NOT
# part of the default ci target — run it when touching the scale tier, and
# regenerate the baseline with `BENCH_1M=1 scripts/bench.sh` so the 1M rows
# stay pinned.
bench-1m:
	BENCH_1M=1 $(GO) test -bench='1M$$' -benchtime=1x -benchmem -timeout 30m -run='^$$' .

# baseline regenerates BENCH_baseline.json, the checked-in perf trajectory
# that future PRs diff against. BENCH_1M=1 includes the million-node tier
# (required when the baseline should pin the 1M rows).
baseline:
	scripts/bench.sh BENCH_baseline.json

# bench-compare runs a fresh suite and diffs it against the checked-in
# baseline — the pre-merge gate for perf-sensitive PRs.
bench-compare:
	scripts/bench.sh --compare BENCH_baseline.json
