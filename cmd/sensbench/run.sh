#!/usr/bin/env bash
# Builds cmd/sensbench from the checkout it sits in and runs one workload.
# Run it from the repository root:
#
#   bash cmd/sensbench/run.sh --workload sens-sweep --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files) stays under .bench_build/ in the checkout. The build's own output
# goes to stderr so that the last line of stdout is the result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd cmd/sensbench && go build -o "$out/sensbench" .) >&2
exec "$out/sensbench" -trace-dir "$out/traces" "$@"
