#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig3-disk --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spans,
# CPU profiles) goes under .bench_build/ at the checkout's root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
