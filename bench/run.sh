#!/usr/bin/env bash
# The benchmark's one command: build ./bench into the checkout's own build
# directory (Go's build cache included, so nothing is written outside the
# checkout) and run it with the arguments given.
#
#   bash bench/run.sh --workload sync-sim-1m --seed 7 --seconds 10 --trace 0
set -euo pipefail
[ -f go.mod ] || { echo "bench/run.sh: run from the repository root (no go.mod here)" >&2; exit 1; }
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/spardl-bench" ./bench
exec "$build/spardl-bench" "$@"
