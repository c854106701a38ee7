#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/ and
# runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload scale --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, module cache, GOPATH
# and the go command's config directory (which holds its telemetry
# counters) all live under .bench_build/ too, so nothing is written outside
# the checkout, and GOPROXY=off keeps the build off the network.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
