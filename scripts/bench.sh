#!/bin/sh
# bench.sh [output.json]      — run the full benchmark suite once per
#                               benchmark (-benchtime=1x -benchmem) and write
#                               the results as JSON so successive PRs have a
#                               machine-readable perf trajectory.
# bench.sh --compare [base]   — run a fresh suite and print a per-benchmark
#                               diff (time, allocs, bytes and peak-RSS
#                               ratios) against the checked-in baseline JSON
#                               (default BENCH_baseline.json). Ratios > 1 are
#                               regressions; >1.10 time ratios are flagged
#                               with a REGRESSION marker and summarized, and
#                               exit non-zero when BENCH_STRICT=1. Any
#                               allocs/op growth is flagged ALLOC-REGRESSION
#                               and exits non-zero when BENCH_STRICT_ALLOCS=1
#                               (time stays advisory under that gate).
#                               >1.10 growth in bytes/op or peak RSS is
#                               flagged MEM-REGRESSION (advisory unless
#                               BENCH_STRICT_MEM=1). The header records the
#                               run's GOMAXPROCS; a notice is printed when
#                               the baseline's differs (or is missing),
#                               since allocs/op of sharded benchmarks depend
#                               on the shard count.
#
# The million-node tier (Benchmark*1M) only runs when BENCH_1M=1 is set —
# `BENCH_1M=1 scripts/bench.sh` to pin it into a baseline, `make bench-1m`
# for a raw run. Without it, --compare labels the baseline's 1M entries
# "skipped (1M tier)" instead of MISSING.
# bench.sh --scenarios [out]  — run the scenario engine (cmd/experiments,
#                               jsonl sink, reduced scale) and serialize the
#                               per-scenario wall times as JSON (default
#                               BENCH_scenarios.json): the experiment-level
#                               perf trajectory.
set -eu

cd "$(dirname "$0")/.."

# One trap covers every temp file (run_suite's raw output, --compare's
# fresh JSON and comparison text, --scenarios' jsonl), so abnormal exits
# anywhere leak nothing.
raw=""
fresh=""
cmp=""
jsonl=""
trap 'rm -f "$raw" "$fresh" "$cmp" "$jsonl"' EXIT

# run_suite OUTPUT_JSON — run the benchmarks and serialize them.
run_suite() {
    raw="$(mktemp)"

    # No pipe to tee here: a pipeline would report tee's exit status and a
    # failed bench run would silently serialize a truncated baseline.
    # Time-based benchtime (not 1x): microsecond-scale benchmarks average
    # over many iterations — single-shot timings swing ±70% run to run,
    # which no regression threshold survives — while the second-scale
    # construction benchmarks still run just once.
    # The 45m timeout covers the million-node tier when BENCH_1M=1 is set
    # (the env var reaches the test binary through the environment).
    if ! go test -bench=. -benchtime=100ms -benchmem -timeout 45m -run='^$' ./... > "$raw" 2>&1; then
        cat "$raw"
        echo "bench.sh: benchmark suite failed; not writing $1" >&2
        exit 1
    fi
    cat "$raw"

    awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go version | awk '{print $3}')" '
BEGIN { n = 0 }
/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    # go test suffixes benchmark names with -GOMAXPROCS unless it is 1.
    if (procs == "") procs = match($1, /-[0-9]+$/) ? substr($1, RSTART + 1) : 1
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; extra = ""; rss = ""; live = ""
    qps = ""; p50 = ""; p99 = ""
    for (i = 2; i <= NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "points")    extra = $i
        if ($(i+1) == "peakRSS-B") rss = $i
        if ($(i+1) == "live-B/op") live = $i
        if ($(i+1) == "qps")       qps = $i
        if ($(i+1) == "p50-us")    p50 = $i
        if ($(i+1) == "p99-us")    p99 = $i
    }
    if (ns == "") next
    line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
    if (bytes != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    if (extra != "")  line = line sprintf(", \"points\": %s", extra)
    if (live != "")   line = line sprintf(", \"live_bytes_per_op\": %.0f", live)
    if (rss != "")    line = line sprintf(", \"peak_rss_bytes\": %.0f", rss)
    # The serving-layer loadgen benchmark reports throughput and latency
    # quantiles; qps regressions are advisory (timing-derived), allocs on
    # the route hot path carry the hard gate.
    if (qps != "")    line = line sprintf(", \"qps\": %.0f", qps)
    if (p50 != "")    line = line sprintf(", \"p50_us\": %.0f", p50)
    if (p99 != "")    line = line sprintf(", \"p99_us\": %.0f", p99)
    line = line "}"
    rows[n++] = line
}
END {
    if (procs == "") procs = 1
    printf "{\n  \"generated\": \"%s\",\n  \"go\": \"%s\",\n  \"cpu\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"benchmarks\": [\n", date, gover, cpu, procs
    for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n-1 ? "," : "")
    printf "  ]\n}\n"
}' "$raw" > "$1"
}

if [ "${1:-}" = "--compare" ]; then
    baseline="${2:-BENCH_baseline.json}"
    if [ ! -f "$baseline" ]; then
        echo "bench.sh: baseline $baseline not found (run 'make baseline' first)" >&2
        exit 1
    fi
    # Validate the baseline BEFORE spending minutes on the suite: a baseline
    # with no benchmark rows (truncated write, wrong file, merge damage)
    # would label every fresh benchmark NEW and wave the strict gate through
    # vacuously green. Advisory runs warn and continue; BENCH_STRICT=1 fails
    # here, fast.
    if ! grep -q '"name"' "$baseline"; then
        echo "bench.sh: baseline $baseline has no benchmark rows (unparsable or truncated)" >&2
        if [ "${BENCH_STRICT:-0}" = "1" ]; then
            echo "bench.sh: BENCH_STRICT=1 and baseline is unusable" >&2
            exit 1
        fi
    fi
    fresh="$(mktemp)"
    cmp="$(mktemp)"
    run_suite "$fresh"
    echo
    echo "comparison vs $baseline (ratio = fresh / baseline; > 1.00 is a regression)"
    # The JSON is one benchmark per line; extract name/ns/allocs with awk.
    awk -v FS='[ ,:{}"]+' -v bench1m="${BENCH_1M:-}" '
function parse(line) {
    name = ""; ns = ""; allocs = 0; bytes = 0; rss = 0
    for (i = 1; i < NF; i++) {
        if ($i == "name")           name = $(i+1)
        if ($i == "ns_per_op")      ns = $(i+1) + 0
        if ($i == "allocs_per_op")  allocs = $(i+1) + 0
        if ($i == "bytes_per_op")   bytes = $(i+1) + 0
        if ($i == "peak_rss_bytes") rss = $(i+1) + 0
    }
}
FNR == NR && /"name"/ {
    parse($0)
    base_ns[name] = ns; base_al[name] = allocs
    base_by[name] = bytes; base_rss[name] = rss
    next
}
/"name"/ {
    parse($0)
    if (name == "" || ns == "") next
    seen[name] = 1
    if (!(name in base_ns)) {
        printf "%-32s NEW   %12.0f ns/op  %9d allocs/op  %12d B/op\n", name, ns, allocs, bytes
        next
    }
    tr = (base_ns[name] > 0) ? ns / base_ns[name] : 1
    ar = (base_al[name] > 0) ? allocs / base_al[name] : 1
    br = (base_by[name] > 0) ? bytes / base_by[name] : 1
    rr = (base_rss[name] > 0 && rss > 0) ? rss / base_rss[name] : 1
    flag = ""
    if (tr > 1.10) { flag = "  <<< REGRESSION >10%"; regressions++ }
    # Alloc counts are deterministic (unlike timings), so any growth at all
    # is a real regression; the 1% slack only absorbs baseline rounding.
    if (ar > 1.01 || (base_al[name] == 0 && allocs > 0)) {
        flag = flag "  <<< ALLOC-REGRESSION"; alloc_regressions++
    }
    # Bytes/op is near-deterministic but GC-timing noise leaks a little;
    # peak RSS is a process high-water mark and depends on benchmark order.
    # Both get the 10% threshold.
    if (br > 1.10 || rr > 1.10) {
        flag = flag "  <<< MEM-REGRESSION"; mem_regressions++
    }
    printf "%-32s time %12.0f -> %12.0f ns/op (x%5.2f)  allocs %9d -> %9d (x%5.2f)  bytes %12d -> %12d (x%5.2f)%s\n",
        name, base_ns[name], ns, tr, base_al[name], allocs, ar, base_by[name], bytes, br, flag
}
END {
    # A benchmark that silently disappears would otherwise drop out of the
    # gate unnoticed (e.g. after a rename). The million-node tier is the
    # deliberate exception: without BENCH_1M=1 those benchmarks skip.
    for (n in base_ns) if (!(n in seen)) {
        if (bench1m == "" && n ~ /1M$/)
            printf "%-32s skipped (1M tier; set BENCH_1M=1 to compare)\n", n
        else
            printf "%-32s MISSING from fresh run (baseline %.0f ns/op)\n", n, base_ns[n]
    }
    if (regressions > 0)
        printf "\n%d benchmark(s) regressed >10%% in time\n", regressions
    else
        printf "\nno benchmark regressed >10%% in time\n"
    if (alloc_regressions > 0)
        printf "%d benchmark(s) regressed in allocs/op\n", alloc_regressions
    else
        printf "no benchmark regressed in allocs/op\n"
    if (mem_regressions > 0)
        printf "%d benchmark(s) regressed >10%% in bytes/op or peak RSS\n", mem_regressions
    else
        printf "no benchmark regressed in bytes/op or peak RSS\n"
}' "$baseline" "$fresh" > "$cmp"
    cat "$cmp"
    # Advisory only, and kept out of $cmp so no gate below can match it.
    pin_procs="$(sed -n 's/.*"gomaxprocs": *\([0-9][0-9]*\).*/\1/p' "$baseline" | head -n 1)"
    run_procs="$(sed -n 's/.*"gomaxprocs": *\([0-9][0-9]*\).*/\1/p' "$fresh" | head -n 1)"
    if [ -z "$pin_procs" ]; then
        echo "notice: $baseline records no gomaxprocs (this run: $run_procs); allocs/op of sharded benchmarks depend on it"
    elif [ "$pin_procs" != "$run_procs" ]; then
        echo "notice: $baseline was pinned at gomaxprocs $pin_procs, this run used $run_procs; allocs/op of sharded benchmarks depend on it"
    fi
    # BENCH_STRICT=1 turns flags into a failing exit for CI pipelines that
    # want a hard gate (the default stays advisory: -benchtime=1x timings
    # are noisy on busy machines).
    if [ "${BENCH_STRICT:-0}" = "1" ] && grep -q "<<< REGRESSION" "$cmp"; then
        echo "bench.sh: BENCH_STRICT=1 and regressions found" >&2
        exit 1
    fi
    # BENCH_STRICT_ALLOCS=1 gates on allocation growth alone: alloc counts
    # are machine-independent, so this gate is reliable even where timings
    # are too noisy for BENCH_STRICT.
    if [ "${BENCH_STRICT_ALLOCS:-0}" = "1" ] && grep -q "ALLOC-REGRESSION" "$cmp"; then
        echo "bench.sh: BENCH_STRICT_ALLOCS=1 and allocation regressions found" >&2
        exit 1
    fi
    # BENCH_STRICT_MEM=1 gates on memory growth (bytes/op, peak RSS) alone —
    # the scale tier's budget gate.
    if [ "${BENCH_STRICT_MEM:-0}" = "1" ] && grep -q "MEM-REGRESSION" "$cmp"; then
        echo "bench.sh: BENCH_STRICT_MEM=1 and memory regressions found" >&2
        exit 1
    fi
    exit 0
fi

if [ "${1:-}" = "--scenarios" ]; then
    out="${2:-BENCH_scenarios.json}"
    scale="${SCENARIO_SCALE:-0.2}"
    seed="${SCENARIO_SEED:-2026}"
    jsonl="$(mktemp)"
    # The jsonl sink emits one {"event":"done","id":...,"ms":...} per
    # scenario; everything needed for a timing trajectory.
    if ! go run ./cmd/experiments -scale "$scale" -seed "$seed" -format jsonl > "$jsonl"; then
        echo "bench.sh: scenario run failed; not writing $out" >&2
        exit 1
    fi
    awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v scale="$scale" -v seed="$seed" '
/"event":"done"/ {
    id = $0; sub(/.*"id":"/, "", id); sub(/".*/, "", id)
    ms = $0; sub(/.*"ms":/, "", ms); sub(/[,}].*/, "", ms)
    rows[n++] = sprintf("    {\"id\": \"%s\", \"ms\": %s}", id, ms)
}
END {
    printf "{\n  \"generated\": \"%s\",\n  \"scale\": %s,\n  \"seed\": %s,\n  \"scenarios\": [\n", date, scale, seed
    for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n-1 ? "," : "")
    printf "  ]\n}\n"
}' "$jsonl" > "$out"
    echo "wrote $out"
    exit 0
fi

out="${1:-BENCH_baseline.json}"
run_suite "$out"
echo "wrote $out"
