#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Everything the build writes — the Go build cache, the
# linker's temporary files, the binary — stays under the checkout's
# build directory (CARGO_TARGET_DIR when the driver sets it, else
# .bench_build), so a run reads and writes only inside its checkout.
# Run it from the root of the checkout:
#
#   bash benchmark/run.sh --workload svc-mix --seed 1 --seconds 20 --trace 0
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/gocache" "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/panorama-bench" ./benchmark
exec "$build/panorama-bench" "$@"
