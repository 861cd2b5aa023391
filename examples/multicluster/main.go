// Command multicluster demonstrates heterogeneous-link planning on a
// 3-cluster grid: a local cluster of modest nodes on a fast LAN plus two
// remote clusters of powerful nodes behind a slow WAN uplink.
//
// It plans the same pool twice — once with the true per-node link
// bandwidths, once through the paper's uniform-bandwidth model (what a
// link-blind administrator would feed the planner) — and then measures
// both deployments on the discrete-event simulator over the *real*
// clustered network. The uniform model's plan drafts the powerful remote
// nodes as agents and collapses on the WAN; the link-aware plan keeps the
// scheduling hierarchy on the LAN and ships only the tiny server messages
// across.
//
//	go run ./examples/multicluster
package main

import (
	"context"
	"fmt"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/scenario"
	"adept/internal/sim"
	"adept/internal/workload"
)

func main() {
	ctx := context.Background()
	// The grid: cluster 0 is local (modest power, fast 100 Mb/s LAN);
	// clusters 1 and 2 are remote compute beasts behind a 2 Mb/s uplink —
	// the cluster-grid family spreads the cluster means geometrically from
	// MinPower (cluster 0) to MaxPower. It is the shape that makes
	// link-blind planning catastrophic, because raw power ranks the remote
	// nodes first for agent duty.
	grid, err := scenario.Spec{
		Family: scenario.ClusterGrid, Name: "grid", N: 15, Clusters: 3,
		Bandwidth: 100, InterBandwidth: 2, MinPower: 300, MaxPower: 1500, Seed: 42,
	}.Generate()
	if err != nil {
		panic(err)
	}
	fmt.Println(grid)

	costs := model.DIETDefaults()
	wapp := workload.DGEMM{N: 100}.MFlop()

	aware, err := core.NewHeuristic().PlanContext(ctx, core.Request{Platform: grid, Costs: costs, Wapp: wapp})
	if err != nil {
		panic(err)
	}

	// The blind view: same pool, links erased — the uniform model B.
	blindPool := grid.Clone()
	for i := range blindPool.Nodes {
		blindPool.Nodes[i].LinkBandwidth = 0
	}
	blind, err := core.NewHeuristic().PlanContext(ctx, core.Request{Platform: blindPool, Costs: costs, Wapp: wapp})
	if err != nil {
		panic(err)
	}
	// The blind plan still runs on the real network: restore true links
	// before simulating it.
	links := map[string]float64{}
	for _, n := range grid.Nodes {
		links[n.Name] = n.LinkBandwidth
	}
	blindReal, err := blind.Hierarchy.WithLinkBandwidths(links)
	if err != nil {
		panic(err)
	}

	cfg := sim.Config{Clients: 40, Warmup: 2, Window: 10}
	awareRes, err := sim.Measure(aware.Hierarchy, costs, grid.Bandwidth, wapp, cfg)
	if err != nil {
		panic(err)
	}
	blindRes, err := sim.Measure(blindReal, costs, grid.Bandwidth, wapp, cfg)
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nlink-aware plan   : predicted ρ=%7.1f req/s, simulated %7.1f req/s\n", aware.Eval.Rho, awareRes.Throughput)
	fmt.Printf("uniform-model plan: predicted ρ=%7.1f req/s, simulated %7.1f req/s (prediction made with links erased)\n", blind.Eval.Rho, blindRes.Throughput)
	fmt.Printf("\nlink-aware deployment:\n%s", aware.Hierarchy)
	fmt.Printf("\nuniform-model deployment on the real network:\n%s", blindReal)
}
