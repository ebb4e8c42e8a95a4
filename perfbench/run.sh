#!/usr/bin/env bash
# Builds the benchmark and the vsserved daemon from this checkout's source,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# stay under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$out/vsserved" ./cmd/vsserved
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
