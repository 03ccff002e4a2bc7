#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload bulk-tmy3 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build caches and the binary stay under
# .bench_build/ there; nothing outside the checkout is read or written
# except the Go toolchain itself. Build output goes to standard error,
# so standard output carries only the benchmark's report.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
