#!/usr/bin/env bash
# Builds the benchmark into bench/out/build/ (compiler cache included, so
# that nothing is written outside the checkout, nor outside bench/) and runs
# it with the given arguments. BENCHMARK.json's command; run it from the
# repository root:
#
#   bash bench/run.sh --workload serve-http --seed 1 --seconds 24 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/bench/out/build"
mkdir -p "$out/tmp"
# The go tool's cache, module path, scratch directory and counter files all
# go under $out.
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
cd "$root"
go -C bench build -o "$out/skynet-e2e" ./e2e
exec "$out/skynet-e2e" "$@"
