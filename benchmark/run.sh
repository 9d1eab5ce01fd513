#!/usr/bin/env bash
# Builds the benchmark from source and runs it, as BENCHMARK.json's command.
# Run from the root of a checkout. Everything the Go toolchain writes (build
# cache, temporary files, the binary) stays under .bench_build/ in the
# checkout; nothing is fetched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$build/rexbench" ./benchmark
exec "$build/rexbench" "$@"
