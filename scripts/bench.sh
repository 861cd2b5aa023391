#!/usr/bin/env bash
# bench.sh — the planner kernel record and its guards.
#
# Runs the BenchmarkHeuristicPlan{100,1k,5k} scaling benchmarks (plus their
# Naive twins planning through the retained full-recompute evaluator), the
# BenchmarkHeuristicPlanClustered5k heterogeneous-links twin, the
# BenchmarkHeuristicPlan{100k,1M} class-collapsed fleet-scale benchmarks,
# BenchmarkHeuristicPlanChurn4000 (replan_churn's miss: a registered
# 4 000-node pool ranked node by node from its columns),
# the BenchmarkPortfolioPlan{1k,Mix} portfolio folds (one 1k pool; the
# seven families at 25-400 nodes, mix_small's shape — recorded, not gated),
# the BenchmarkServicePlanThroughput serving-layer benchmarks (hot/mixed
# key workloads through the adeptd HTTP handler), the
# BenchmarkServicePlanTrace off/on pair (cached-hit request without and
# with a plan trace), BenchmarkObsStoreSample (one time-series sampling
# tick of the SLO engine), the scenario pair through the handler —
# BenchmarkServicePlanScenarioHit100k (a primed 100k-node scenario: the
# O(1)-hit contract) and BenchmarkServicePlanScenarioCold100k (a new
# 100k-node catalogue scenario every iteration, fleet_cold's shape: the
# columnar-miss contract) — BenchmarkKeyFor100k (streaming 100k nodes
# into a key) and BenchmarkPlatformPut4000 (replan_churn's 4 000-node PUT
# through the handler: read, decode, validate once, store); writes
# BENCH_plan.json (per benchmark: the median of COUNT runs, with the
# per-run ns/op samples beside it), and gates only what means the same on
# every machine, or is a stated contract:
#
#   1. the 5k incremental-vs-naive speedup must be >= 10x, and the
#      heterogeneous (cluster-grid) 5k plan must stay within 2x ns/op of
#      the homogeneous 5k plan (within-run ratios: machine-independent);
#   2. a million-node class-collapsed plan must stay under one second
#      (absolute ceiling — the headline latency contract of the
#      equivalence-class planner, set at ~2x its measured cost), and the
#      4 000-node replan_churn miss under 2.5 ms (~3x its measured
#      median, 0.83-1.0 ms on a 2-vCPU sandbox; ranking it by copying and
#      stably sorting node structs, as before the pool became column
#      indices, cost 1.5-2.1 ms there);
#   3. a cache hit on a 100k-node scenario must stay under 3 ms, a cold
#      miss on one under 25 ms, content-addressing 100k inline nodes
#      under 16 ms, and a 4 000-node platform PUT under 3 ms (absolute
#      ceilings at ~3x the measured medians: a hit that generates, a miss
#      that materialises the nodes it generated, a key that marshals, or a
#      PUT decoded by reflection — 3.3-4.9 ms where the decoder takes
#      0.8-1.4 ms — is over its ceiling).
#
# There is no baseline compare: absolute ns/op drifts with the host by more
# than any tolerance worth setting (+25…+70 % between sessions on one
# sandbox). A performance claim cites BENCHMARK.json — bench/run.sh, ten
# interleaved pairs against the parent commit — never this file.
#
# Knobs: BENCHTIME (default 3x), COUNT (default 5).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
COUNT="${COUNT:-5}"

go test -run '^$' \
  -bench 'BenchmarkHeuristicPlan(100|1k|5k|100k|1M|Churn4000)$|BenchmarkHeuristicPlanNaive(100|1k|5k)$|BenchmarkHeuristicPlanClustered5k$|BenchmarkPortfolioPlan(1k|Mix)$|BenchmarkServicePlanThroughput$|BenchmarkServicePlanTrace$|BenchmarkObsStoreSample$|BenchmarkServicePlanScenario(Hit|Cold)100k$|BenchmarkKeyFor100k$|BenchmarkPlatformPut4000$' \
  -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee bench_plan.txt

go run ./cmd/benchguard -parse bench_plan.txt -out BENCH_plan.json

go run ./cmd/benchguard -new BENCH_plan.json \
  -require-speedup 10 \
  -speedup-pair BenchmarkHeuristicPlanNaive5k:BenchmarkHeuristicPlan5k \
  -require-max-ratio 2 \
  -max-ratio-pair BenchmarkHeuristicPlanClustered5k:BenchmarkHeuristicPlan5k \
  -require-max-ns BenchmarkHeuristicPlan1M:1000000000 \
  -require-max-ns BenchmarkHeuristicPlanChurn4000:2500000 \
  -require-max-ns BenchmarkServicePlanScenarioHit100k:3000000 \
  -require-max-ns BenchmarkServicePlanScenarioCold100k:25000000 \
  -require-max-ns BenchmarkKeyFor100k:16000000 \
  -require-max-ns BenchmarkPlatformPut4000:3000000
