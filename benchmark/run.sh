#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the given arguments. Everything go writes (build cache,
# module cache, the binary) stays inside the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "run.sh: run from the checkout root: bash benchmark/run.sh [flags]" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/cloudwalker-benchmark" .
exec "$build/cloudwalker-benchmark" "$@"
