#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source with
# the Go caches kept inside the checkout (.bench_build/), then runs it from
# the checkout root with the arguments it was given. See bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/gocast-bench" . >&2
cd "$root"
exec "$build/gocast-bench" "$@"
