#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything stays under bench/out/ in the checkout: the binary, Go's build
# cache and temporary files, and the span files the benchmark writes.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/nadmm-bench-run" ./bench
exec "$build/nadmm-bench-run" "$@"
