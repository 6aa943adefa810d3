#!/usr/bin/env bash
# Builds gsbench from source and runs it, keeping everything the build and the
# run write (Go's build cache, temporary and WAL directories, span files)
# inside the checkout: under .bench_build/ and bench/out/.
#
#   bash bench/run.sh --workload wire_flood --seed 1 --seconds 24 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/gsbench" ./gsbench
exec "$build/gsbench" -out "$root/bench/out" "$@"
