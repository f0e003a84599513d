#!/usr/bin/env bash
# Builds cmd/bench into .bench_build/ at the root of the checkout and runs
# it with the given arguments. Go's build cache, module cache and temporary
# files are kept under .bench_build/ too, and the data directories of the
# disk workloads under .bench_build/work, so that nothing is written outside
# the checkout. Run from the repository root:
#
#   bash cmd/bench/run.sh --workload paper_mix_mem --seed 1 --seconds 12 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./cmd/bench
exec "$build/bench" -workdir "$build/work" "$@"
