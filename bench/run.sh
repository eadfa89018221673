#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (binary, Go build cache, temp files) stays under .bench_build in the
# checkout; the program's own outputs go to bench/out.
#
#   bash bench/run.sh                                  # all four workloads
#   bash bench/run.sh --workload solo_latency --seed 7 --seconds 22 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$root"
go build -C bench -o "$build/adbench" .
exec "$build/adbench" "$@"
