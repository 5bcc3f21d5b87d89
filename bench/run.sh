#!/usr/bin/env bash
# Builds the harness from source into the checkout's .bench_build directory
# (Go build cache included, so nothing is written outside the checkout) and
# runs it from bench/ with the arguments it was given.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/socialtube-perf" .
exec "$build/socialtube-perf" "$@"
