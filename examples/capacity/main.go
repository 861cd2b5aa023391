// Capacity planning (the paper's Table 4 scenario): sweep the DGEMM
// problem size on a fixed homogeneous cluster and watch the optimal
// deployment shape change — one server for tiny requests (agent-limited),
// deep trees in the mid-range, a full star for huge requests
// (server-limited). Also shows demand-capped planning: when a client
// demand is given, the planner uses the fewest nodes that satisfy it.
//
// Run with: go run ./examples/capacity
package main

import (
	"context"
	"fmt"
	"log"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/workload"
)

func main() {
	ctx := context.Background()
	plat := platform.Homogeneous("cluster", 45, 400, 100)
	fmt.Printf("%s\n\n", plat)
	fmt.Printf("%-12s  %-8s  %-8s  %-8s  %-7s  %s\n",
		"workload", "ρ(req/s)", "agents", "servers", "depth", "bottleneck")

	for _, n := range []int{10, 50, 100, 200, 310, 500, 1000} {
		app := workload.DGEMM{N: n}
		req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: app.MFlop()}
		plan, err := core.NewHeuristic().PlanContext(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		s := plan.Hierarchy.ComputeStats()
		fmt.Printf("%-12s  %-8.1f  %-8d  %-8d  %-7d  %s\n",
			app, plan.Eval.Rho, s.Agents, s.Servers, s.Depth, plan.Eval.Bottleneck)
	}

	// Demand-capped planning: a fraction of peak throughput needs far
	// fewer nodes.
	fmt.Println("\ndemand-capped planning for DGEMM 310x310:")
	app := workload.DGEMM{N: 310}
	base := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: app.MFlop()}
	peak, err := core.NewHeuristic().PlanContext(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	for _, frac := range []float64{1, 0.5, 0.25, 0.1} {
		req := base
		req.Demand = workload.Demand(frac * peak.Eval.Rho)
		if frac == 1 {
			req.Demand = workload.Unbounded
		}
		plan, err := core.NewHeuristic().PlanContext(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		label := "unbounded"
		if req.Demand.Bounded() {
			label = fmt.Sprintf("%.0f req/s", float64(req.Demand))
		}
		fmt.Printf("  demand %-10s -> %2d nodes, delivers %.1f req/s\n",
			label, plan.NodesUsed, plan.Capped)
	}
}
