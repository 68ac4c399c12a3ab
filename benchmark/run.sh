#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload admit_warm --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, result and span files,
# and the directories' scratch data (removed when the run ends).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
