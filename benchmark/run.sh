#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source into
# .bench_build/ at the root of the checkout, then run it from this
# directory with the arguments given. Everything the go tool writes
# (build cache, module cache, telemetry) is kept inside the checkout.
set -euo pipefail

cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The module replaces the repository's module with "../": in a
# directory that holds only the benchmark this fails, and so does the
# run.
go build -o "$build/meccdn-bench" .
exec "$build/meccdn-bench" "$@"
