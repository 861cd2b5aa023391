#!/usr/bin/env bash
# run.sh — build and run the adeptd benchmark.
#
#   bash bench/run.sh                       all four workloads, both tables
#   bash bench/run.sh -aa                   two interleaved sides of the same code, A/A gap table
#   bash bench/run.sh --workload fleet_hit --seed 3 --seconds 28 --trace 0
#
# Everything it writes stays under bench/: binaries, the Go build cache and
# the go command's own config directory (telemetry counters) in
# bench/.build, run outputs in bench/out. The benchmark binary builds
# cmd/adeptd itself (from the module one directory up) before measuring.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$here/.build"
export GOCACHE="$here/.build/gocache" XDG_CONFIG_HOME="$here/.build/config" GOTOOLCHAIN=local
cd "$here"
go build -o .build/adeptbench .
exec .build/adeptbench "$@"
