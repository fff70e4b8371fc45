#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload sparse_read --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, fixtures and trace files
# under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/benchmark" . >&2
exec "$build/benchmark" -out "$here/out" "$@"
