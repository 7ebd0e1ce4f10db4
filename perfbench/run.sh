#!/usr/bin/env bash
# Builds the control-plane benchmark from the checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, span dumps) stays under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="${build}/config"

go -C "${root}/perfbench" build -o "${build}/perfbench" .
exec "${build}/perfbench" "$@"
