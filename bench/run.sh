#!/usr/bin/env bash
# Builds the layered Fed-SC benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload round-local --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the span files
# of traced runs and the temporary model stores of fleet-join.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its settings and usage counters under the user
# config directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTMPDIR="$out"
go -C bench build -o "$out/fedsc-bench" .
exec "$out/fedsc-bench" -workdir "$out" "$@"
