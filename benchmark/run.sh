#!/bin/sh
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout and runs it with the arguments
# given. Everything the build and the run write — Go's build cache included —
# stays under .bench_build/, so the command reads and writes only inside the
# checkout. Without the repository around it (no go.mod, no internal/) the
# build fails and the script exits non-zero before printing a result.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/asgd-benchmark" ./benchmark
exec "$build/asgd-benchmark" "$@"
