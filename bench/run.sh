#!/usr/bin/env bash
# Builds the benchmark and the ccnd binary it drives into .bench_build/ at
# the repository root, then runs the benchmark from the root. The Go build
# cache and temp directory live there too, so a run reads and writes only
# inside the checkout. Arguments are passed through to the benchmark.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root" -o "$build/ccnd" ./cmd/ccnd
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" -ccnd "$build/ccnd" "$@"
