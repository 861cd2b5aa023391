package experiments

import (
	"context"
	"fmt"

	"adept/internal/hierarchy"
	"adept/internal/sim"
	"adept/internal/workload"
)

// starHierarchy builds the 1-agent star used by Figs. 2–5.
func starHierarchy(p Params, servers int) (*hierarchy.Hierarchy, error) {
	h := hierarchy.New(fmt.Sprintf("star-%d", servers))
	root, err := h.AddRoot("agent", p.NodePower)
	if err != nil {
		return nil, err
	}
	for i := 0; i < servers; i++ {
		if _, err := h.AddServer(root, fmt.Sprintf("sed-%d", i), p.NodePower); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// starLoadFigure produces the Figs. 2/4 measured-throughput-vs-clients
// series for one- and two-server stars on the given DGEMM size.
func starLoadFigure(p Params, id, title string, dgemmN int, levels []int, expectSecondServerHelps bool) (Report, error) {
	wapp := workload.DGEMM{N: dgemmN}.MFlop()
	warmup, window := 2.0, 10.0
	if p.Quick {
		warmup, window = 1.0, 4.0
		if len(levels) > 4 {
			levels = levels[:4]
		}
	}
	h1, err := starHierarchy(p, 1)
	if err != nil {
		return Report{}, err
	}
	h2, err := starHierarchy(p, 2)
	if err != nil {
		return Report{}, err
	}
	s1, err := sim.LoadSeries(h1, p.Costs, p.Bandwidth, wapp, levels, warmup, window)
	if err != nil {
		return Report{}, err
	}
	s2, err := sim.LoadSeries(h2, p.Costs, p.Bandwidth, wapp, levels, warmup, window)
	if err != nil {
		return Report{}, err
	}

	rep := Report{
		ID:      id,
		Title:   title,
		Columns: []string{"clients", "1 SeD (req/s)", "2 SeDs (req/s)"},
	}
	var max1, max2 float64
	for i := range levels {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", levels[i]), fmtF(s1[i].Throughput), fmtF(s2[i].Throughput),
		})
		if s1[i].Throughput > max1 {
			max1 = s1[i].Throughput
		}
		if s2[i].Throughput > max2 {
			max2 = s2[i].Throughput
		}
	}
	shape := "2 SeDs > 1 SeD (server-limited: second server helps)"
	holds := max2 > max1
	if !expectSecondServerHelps {
		shape = "1 SeD > 2 SeDs (agent-limited: second server hurts)"
		holds = max1 > max2
	}
	verdict := "REPRODUCED"
	if !holds {
		verdict = "NOT reproduced"
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("paper shape: %s — %s (max 1 SeD %.1f, max 2 SeDs %.1f)",
		shape, verdict, max1, max2))
	return rep, nil
}

// Fig2 — star hierarchies, DGEMM 10x10: measured throughput under
// increasing load; the agent is the bottleneck, so the second server hurts.
func Fig2(_ context.Context, p Params) (Report, error) {
	levels := []int{1, 2, 5, 10, 20, 50, 100, 150, 200}
	return starLoadFigure(p, "fig2",
		"Star with 1 vs 2 servers, DGEMM 10x10: measured throughput vs load",
		10, levels, false)
}

// Fig4 — star hierarchies, DGEMM 200x200: the servers are the bottleneck,
// so the second server roughly doubles throughput.
func Fig4(_ context.Context, p Params) (Report, error) {
	levels := []int{1, 2, 5, 10, 25, 50, 100, 200, 300}
	return starLoadFigure(p, "fig4",
		"Star with 1 vs 2 servers, DGEMM 200x200: measured throughput vs load",
		200, levels, true)
}

// predictedVsMeasured produces the Figs. 3/5 comparison: the model's ρ
// against the simulator's saturated throughput for one- and two-server
// stars.
func predictedVsMeasured(p Params, id, title string, dgemmN int) (Report, error) {
	wapp := workload.DGEMM{N: dgemmN}.MFlop()
	warmup, window, maxClients := 2.0, 10.0, 512
	if p.Quick {
		warmup, window, maxClients = 1.0, 4.0, 64
	}
	rep := Report{
		ID:      id,
		Title:   title,
		Columns: []string{"deployment", "predicted (req/s)", "measured (req/s)", "error"},
	}
	for _, servers := range []int{1, 2} {
		h, err := starHierarchy(p, servers)
		if err != nil {
			return Report{}, err
		}
		pred := h.Evaluate(p.Costs, p.Bandwidth, wapp)
		meas, err := sim.Plateau(h, p.Costs, p.Bandwidth, wapp, warmup, window, maxClients, 0.01)
		if err != nil {
			return Report{}, err
		}
		errPct := 100 * (meas.Throughput - pred.Rho) / pred.Rho
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d SeD(s)", servers),
			fmtF(pred.Rho),
			fmtF(meas.Throughput),
			fmt.Sprintf("%+.1f%%", errPct),
		})
	}
	rep.Notes = append(rep.Notes,
		"the paper's claim is that the model correctly ranks the deployments, not that absolute values match")
	return rep, nil
}

// Fig3 — predicted vs measured maximum throughput, DGEMM 10x10.
func Fig3(_ context.Context, p Params) (Report, error) {
	return predictedVsMeasured(p, "fig3",
		"Predicted vs measured maximum throughput, DGEMM 10x10 stars", 10)
}

// Fig5 — predicted vs measured maximum throughput, DGEMM 200x200.
func Fig5(_ context.Context, p Params) (Report, error) {
	return predictedVsMeasured(p, "fig5",
		"Predicted vs measured maximum throughput, DGEMM 200x200 stars", 200)
}
