#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the caller's directory,
# with the arguments given. BENCHMARK.json's command is this script.
# Everything the build leaves behind (the binary, the go build cache, the go
# command's own counters) stays inside the checkout, under .bench_build/;
# the benchmark's own outputs go to benchmark/out/ unless -out says otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
# VCS stamping records the commit in the output header; where git cannot
# answer (no repository, or one it refuses to read), build without it.
go build -C "$here" -o "$build/benchmark" . 2>/dev/null ||
	go build -C "$here" -buildvcs=false -o "$build/benchmark" .
exec "$build/benchmark" -out "$here/out/result.json" "$@"
