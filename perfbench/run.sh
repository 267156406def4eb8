#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given flags, e.g.
#
#   bash perfbench/run.sh --workload serve-knn --seed 1 --seconds 40 --trace 0
#
# Run it from the root of the repository. The build cache, the Go
# environment and the binary stay under .bench_build/ in that directory;
# nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
