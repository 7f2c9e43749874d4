#!/usr/bin/env bash
# Builds the benchmark driver from source inside the checkout and runs it
# with the given arguments. Build outputs and the Go build cache stay under
# .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/redbud-benchmark" .)
cd "$root"
exec "$build/redbud-benchmark" "$@"
