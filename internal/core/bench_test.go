package core_test

import (
	"testing"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// The planner's scaling benchmarks. scripts/bench.sh runs the seven below
// with the rest of its benchmarks, records their medians in
// BENCH_plan.json and gates two within-run ratios on them: the 5k naive
// plan must take at least 10x the incremental one, and the clustered 5k
// plan at most 2x the homogeneous one; their absolute ns/op is recorded,
// not compared with any baseline. They live here, beside the test seam,
// because the naive planner exists only in this package's tests.

// scenarioRequest builds a trace-perturbed platform (the §5.3
// heterogenised-cluster family) whose deployment grows to the full pool
// under a DGEMM-1000 workload, so the benchmarks measure the planner's
// full growth loop, not an early exit.
func scenarioRequest(b *testing.B, n int) core.Request {
	b.Helper()
	plat, err := (scenario.Spec{Family: scenario.TracePerturbed, N: n, Seed: 7}).Generate()
	if err != nil {
		b.Fatal(err)
	}
	return core.Request{
		Platform: plat,
		Costs:    model.DIETDefaults(),
		Wapp:     workload.DGEMM{N: 1000}.MFlop(),
	}
}

func benchPlanner(b *testing.B, planner core.Planner, n int) {
	b.Helper()
	req := scenarioRequest(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.PlanContext(b.Context(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristicPlan{100,1k,5k} plan through the incremental
// evaluator; the Naive variants plan through the full-recompute reference
// (the pre-incremental cost profile). Same deployments, different
// evaluation engines.
func BenchmarkHeuristicPlan100(b *testing.B)      { benchPlanner(b, core.NewHeuristic(), 100) }
func BenchmarkHeuristicPlan1k(b *testing.B)       { benchPlanner(b, core.NewHeuristic(), 1000) }
func BenchmarkHeuristicPlan5k(b *testing.B)       { benchPlanner(b, core.NewHeuristic(), 5000) }
func BenchmarkHeuristicPlanNaive100(b *testing.B) { benchPlanner(b, core.NewHeuristicNaive(), 100) }
func BenchmarkHeuristicPlanNaive1k(b *testing.B)  { benchPlanner(b, core.NewHeuristicNaive(), 1000) }
func BenchmarkHeuristicPlanNaive5k(b *testing.B)  { benchPlanner(b, core.NewHeuristicNaive(), 5000) }

// BenchmarkHeuristicPlanClustered5k plans a 5k-node multi-cluster grid
// with heterogeneous links (the cluster-grid scenario family): same
// workload as BenchmarkHeuristicPlan5k, but every placement decision now
// runs through the per-node-bandwidth paths (prediction-throughput heap,
// min-link heap, best-star and best-pair scans). scripts/bench.sh gates it
// to within 2x of the homogeneous 5k benchmark, so heterogeneity support
// can never quietly double the planner's hot path.
func BenchmarkHeuristicPlanClustered5k(b *testing.B) {
	plat, err := (scenario.Spec{Family: scenario.ClusterGrid, N: 5000, Seed: 7}).Generate()
	if err != nil {
		b.Fatal(err)
	}
	req := core.Request{
		Platform: plat,
		Costs:    model.DIETDefaults(),
		Wapp:     workload.DGEMM{N: 1000}.MFlop(),
	}
	planner := core.NewHeuristic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.PlanContext(b.Context(), req); err != nil {
			b.Fatal(err)
		}
	}
}
