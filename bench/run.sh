#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash bench/run.sh --workload sweep-small --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary build files, and the binary stay under
# .bench_build at the repository root; the benchmark writes only under
# bench/out. Without the repository's module next to it the build fails and
# the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOENV=off GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
go build -buildvcs=false -o "$build/bench" .
exec "$build/bench" "$@"
