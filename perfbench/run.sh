#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload train-fit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, packed stores and
# traces. The module builds offline; it has no dependency outside this
# repository.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's caches, temporary files and telemetry counters follow
# these variables (telemetry lives under XDG_CONFIG_HOME).
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
