package experiments

import (
	"context"
	"fmt"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/sim"
	"adept/internal/workload"
)

// heteroDeployments plans the three §5.3 deployments on the heterogenised
// cluster: the intuitive star, the intuitive balanced two-level tree
// (degree 14, as in the paper), and the heuristic's automatic deployment.
func heteroDeployments(ctx context.Context, p Params, nodes, dgemmN int) (star, balanced, automatic *core.Plan, err error) {
	plat, err := heterogenizedPlatform(p, "orsay", nodes)
	if err != nil {
		return nil, nil, nil, err
	}
	req := core.Request{
		Platform: plat,
		Costs:    p.Costs,
		Wapp:     workload.DGEMM{N: dgemmN}.MFlop(),
	}
	if star, err = (&baseline.Star{}).PlanContext(ctx, req); err != nil {
		return nil, nil, nil, fmt.Errorf("star: %w", err)
	}
	if balanced, err = (&baseline.Balanced{Degree: 14}).PlanContext(ctx, req); err != nil {
		return nil, nil, nil, fmt.Errorf("balanced: %w", err)
	}
	if automatic, err = core.NewHeuristic().PlanContext(ctx, req); err != nil {
		return nil, nil, nil, fmt.Errorf("heuristic: %w", err)
	}
	return star, balanced, automatic, nil
}

// heteroFigure runs the Figs. 6/7 comparison: measured load curves for each
// deployment on the heterogenised 200-node cluster.
func heteroFigure(ctx context.Context, p Params, id, title string, dgemmN int, levels []int) (Report, error) {
	nodes := 200
	quickFactor := 1.0
	if p.Quick {
		nodes = 60
		quickFactor = 0.4
		if len(levels) > 4 {
			levels = []int{levels[0], levels[1], levels[2], levels[len(levels)-1]}
		}
	}
	star, balanced, automatic, err := heteroDeployments(ctx, p, nodes, dgemmN)
	if err != nil {
		return Report{}, fmt.Errorf("%s: %w", id, err)
	}
	wapp := workload.DGEMM{N: dgemmN}.MFlop()

	// One service request takes wapp/power seconds, and k closed-loop
	// clients cycle with period ≈ k/ρ (Little's law, ρ estimated from the
	// model). Saturated deployments complete requests in waves of that
	// period, so the warmup must cover the initial fill (two cycles) and
	// the window must span several cycles to average the waves out.
	serviceTime := wapp / p.NodePower
	timing := func(plan *core.Plan, clients int) (warmup, window float64) {
		cycle := float64(clients) / maxf(plan.Eval.Rho, 1)
		warmup = (maxf(2, 3*serviceTime) + 2*cycle) * quickFactor
		window = maxf(maxf(4, 6*serviceTime), 3*cycle) * quickFactor
		return warmup, window
	}

	series := make([][]sim.Point, 3)
	for i, plan := range []*core.Plan{star, balanced, automatic} {
		pts := make([]sim.Point, 0, len(levels))
		for _, k := range levels {
			warmup, window := timing(plan, k)
			res, err := sim.Measure(plan.Hierarchy, p.Costs, p.Bandwidth, wapp,
				sim.Config{Clients: k, Warmup: warmup, Window: window})
			if err != nil {
				return Report{}, fmt.Errorf("%s: %s: %w", id, plan.Planner, err)
			}
			pts = append(pts, sim.Point{Clients: k, Throughput: res.Throughput})
		}
		series[i] = pts
	}

	rep := Report{
		ID:      id,
		Title:   title,
		Columns: []string{"clients", "star (req/s)", "balanced (req/s)", "automatic (req/s)"},
	}
	maxes := make([]float64, 3)
	for i := range levels {
		row := []string{fmt.Sprintf("%d", levels[i])}
		for j := range series {
			row = append(row, fmtF(series[j][i].Throughput))
			if series[j][i].Throughput > maxes[j] {
				maxes[j] = series[j][i].Throughput
			}
		}
		rep.Rows = append(rep.Rows, row)
	}

	autoStats := automatic.Hierarchy.ComputeStats()
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"automatic deployment uses %d of %d nodes (%d agents, %d servers, depth %d); star/balanced use the whole pool",
		autoStats.Nodes, nodes, autoStats.Agents, autoStats.Servers, autoStats.Depth))
	verdict := "REPRODUCED"
	if !(maxes[2] >= maxes[0] && maxes[2] >= maxes[1]) {
		verdict = "NOT reproduced"
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"paper shape: automatic ≥ star and automatic ≥ balanced — %s (max star %.1f, balanced %.1f, automatic %.1f)",
		verdict, maxes[0], maxes[1], maxes[2]))
	return rep, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Fig6 — heterogeneous cluster, DGEMM 310x310: the automatically planned
// hierarchy beats both intuitive deployments.
func Fig6(ctx context.Context, p Params) (Report, error) {
	levels := []int{1, 10, 50, 100, 200, 400, 700}
	return heteroFigure(ctx, p, "fig6",
		"Heterogenised 200-node cluster, DGEMM 310x310: star vs balanced vs automatic", 310, levels)
}

// Fig7 — heterogeneous cluster, DGEMM 1000x1000: the heuristic degenerates
// to a star, which beats the balanced deployment.
func Fig7(ctx context.Context, p Params) (Report, error) {
	levels := []int{1, 5, 10, 25, 50, 100, 250, 500}
	rep, err := heteroFigure(ctx, p, "fig7",
		"Heterogenised 200-node cluster, DGEMM 1000x1000: automatic (≈star) vs balanced", 1000, levels)
	if err != nil {
		return rep, err
	}
	return rep, nil
}
