#!/usr/bin/env bash
# bench.sh — the planner kernel record and its guards.
#
# Runs, in internal/core, the BenchmarkHeuristicPlan{100,1k,5k} scaling
# benchmarks (plus their Naive twins, planning through the full-recompute
# evaluator that only that package's tests build) and the
# BenchmarkHeuristicPlanClustered5k heterogeneous-links twin; then, in the
# root package, the BenchmarkHeuristicPlan{100k,1M} class-collapsed
# fleet-scale benchmarks,
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
# columnar-miss contract) — BenchmarkServicePlanInline400 (a cache hit on
# an inline 400-node platform, mix_small's per-request floor),
# BenchmarkKeyFor100k (streaming 100k nodes
# into a key) and BenchmarkPlatformPut4000 (replan_churn's 4 000-node PUT
# through the handler: read, decode into validated columns, store), and two
# of that PUT's layers in internal/platform, recorded, not gated —
# BenchmarkDecodeJSON4000 (the decoder alone) and BenchmarkColumnsDigest4000
# (the registry's content address of what it decoded) — and, in
# internal/scenario, BenchmarkSpecColumns100k (that cold miss's generation
# alone: a new 100k-node catalogue scenario every iteration, drawn into
# one reused Columns); writes
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
#      4 000-node replan_churn miss under 0.6 ms (~3x its measured
#      median, 0.20-0.25 ms on a 2-vCPU sandbox, where the radix ranking
#      does in a few passes over the keys what a comparison sort of the
#      column indices did in 0.73-0.94 ms — so a return to the comparison
#      sort is over the ceiling, and so is the 1.5-2.1 ms of copying and
#      stably sorting node structs before that);
#   3. a cache hit on a 100k-node scenario must stay under 3 ms, a cold
#      miss on one under 13 ms, generating that miss's columns alone
#      under 7.5 ms, content-addressing 100k inline nodes under 16 ms,
#      and a 4 000-node platform PUT under 2.5 ms (absolute ceilings at ~3x
#      the measured medians: a hit that generates, a miss that
#      materialises the nodes it generated, a key that marshals, or a PUT
#      decoded by reflection — 3.3-4.9 ms where the columns decoder takes
#      0.7-0.8 ms — is over its ceiling). The cold miss reads each node a
#      fixed few times (the draw, one snap-and-class pass, deal, one Eq. 15
#      fold): 4.4 ms median on a 2-vCPU sandbox, where a table probe sized
#      for the class cap, a per-node tier search, a twice-built power
#      vector and reflective XML cost 6.2-6.8 ms. Its generation alone
#      recorded 2.3 ms, in a slow phase of the same noisy host that put the
#      miss at 4.3 ms;
#   4. what those two scenario requests allocate: the cold miss at most
#      1 MiB/op and the hit at most 160 KiB/op (absolute B/op ceilings,
#      which do not drift with the host as ns/op does). A miss generates
#      its columns, deals its pool and renders its XML in a job's memory
#      the daemon keeps between jobs, and every answer is encoded through
#      a kept encoder: 0.77 MB per miss as recorded here (~0.5 MB over 50
#      seeds) and ~90 KB per hit, where drawing the power, class and
#      dealt-order columns afresh (1.6 MB at 100k nodes) and regrowing the
#      encoder's buffers recorded 3.0 MB and 475 KB;
#   5. what a hit on an inline 400-node platform allocates: at most 64 KiB/op
#      (an absolute B/op ceiling at ~2x the recorded median, ~31 KB). The
#      body is read into a kept buffer and its platform decoded straight
#      into columns; decoding the platform into nodes by reflection, as
#      /v1/plan did before, allocates ~188 KB/op (~1.0 ms/op against
#      ~0.25 ms on a 2-vCPU sandbox) and is over the ceiling.
#
# There is no baseline compare: absolute ns/op drifts with the host by more
# than any tolerance worth setting (+25…+70 % between sessions on one
# sandbox). A performance claim cites BENCHMARK.json — bench/run.sh, ten
# interleaved pairs against the parent commit — never this file.
#
# BenchmarkHeuristicPlanChurn4000 runs on its own, at a fixed 30
# iterations per sample: at three iterations its first, which grows the
# reused core.Scratch, weighs on every sample, and the samples fell on
# both sides of the ceiling with no change to the code.
#
# Knobs: BENCHTIME (default 3x), COUNT (default 5).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
COUNT="${COUNT:-5}"

go test -run '^$' \
  -bench 'BenchmarkHeuristicPlan(100|1k|5k|100k|1M)$|BenchmarkHeuristicPlanNaive(100|1k|5k)$|BenchmarkHeuristicPlanClustered5k$|BenchmarkPortfolioPlan(1k|Mix)$|BenchmarkServicePlanThroughput$|BenchmarkServicePlanTrace$|BenchmarkObsStoreSample$|BenchmarkServicePlanScenario(Hit|Cold)100k$|BenchmarkServicePlanInline400$|BenchmarkKeyFor100k$|BenchmarkPlatformPut4000$|BenchmarkDecodeJSON4000$|BenchmarkColumnsDigest4000$|BenchmarkSpecColumns100k$' \
  -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . ./internal/core ./internal/platform ./internal/scenario | tee bench_plan.txt

go test -run '^$' -bench 'BenchmarkHeuristicPlanChurn4000$' \
  -benchmem -benchtime 30x -count "$COUNT" . | tee -a bench_plan.txt

go run ./cmd/benchguard -parse bench_plan.txt -out BENCH_plan.json

go run ./cmd/benchguard -new BENCH_plan.json \
  -require-speedup 10 \
  -speedup-pair BenchmarkHeuristicPlanNaive5k:BenchmarkHeuristicPlan5k \
  -require-max-ratio 2 \
  -max-ratio-pair BenchmarkHeuristicPlanClustered5k:BenchmarkHeuristicPlan5k \
  -require-max-ns BenchmarkHeuristicPlan1M:1000000000 \
  -require-max-ns BenchmarkHeuristicPlanChurn4000:600000 \
  -require-max-ns BenchmarkServicePlanScenarioHit100k:3000000 \
  -require-max-ns BenchmarkServicePlanScenarioCold100k:13000000 \
  -require-max-ns BenchmarkSpecColumns100k:7500000 \
  -require-max-ns BenchmarkKeyFor100k:16000000 \
  -require-max-ns BenchmarkPlatformPut4000:2500000 \
  -require-max-bytes BenchmarkServicePlanScenarioCold100k:1048576 \
  -require-max-bytes BenchmarkServicePlanScenarioHit100k:163840 \
  -require-max-bytes BenchmarkServicePlanInline400:65536
