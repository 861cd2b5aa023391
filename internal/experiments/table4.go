package experiments

import (
	"context"
	"fmt"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/workload"
)

// table4Case is one row of Table 4: a DGEMM size and the node pool the
// paper reserved for it.
type table4Case struct {
	DgemmN int
	Nodes  int
}

// table4Cases mirrors the paper's rows.
func table4Cases() []table4Case {
	return []table4Case{
		{10, 21},
		{100, 25},
		{310, 45},
		{1000, 21},
	}
}

// Table4 regenerates the heuristic-vs-optimal comparison on homogeneous
// clusters: for each DGEMM size, the best-known deployment (the complete
// spanning d-ary search of [10], improved by the swap-refined heuristic
// when it finds something better), the plain d-ary optimum's degree, the
// heuristic's degree, and the percentage of best-known throughput the
// heuristic achieves.
func Table4(ctx context.Context, p Params) (Report, error) {
	rep := Report{
		ID:    "table4",
		Title: "Heuristic vs optimal deployment on homogeneous clusters (paper Table 4)",
		Columns: []string{
			"DGEMM size", "total nodes", "best ρ (req/s)", "homo. deg.", "heur. deg.", "heur. perf.",
		},
	}
	for _, tc := range table4Cases() {
		req := core.Request{
			Platform: homogeneousPlatform(p, fmt.Sprintf("homo-%d", tc.DgemmN), tc.Nodes),
			Costs:    p.Costs,
			Wapp:     workload.DGEMM{N: tc.DgemmN}.MFlop(),
		}
		dary, err := (&baseline.OptimalDAry{}).PlanContext(ctx, req)
		if err != nil {
			return Report{}, fmt.Errorf("table4: dary: %w", err)
		}
		heur, err := core.NewHeuristic().PlanContext(ctx, req)
		if err != nil {
			return Report{}, fmt.Errorf("table4: heuristic: %w", err)
		}
		refined, err := (&core.SwapRefiner{}).PlanContext(ctx, req)
		if err != nil {
			return Report{}, fmt.Errorf("table4: refined: %w", err)
		}
		best := dary
		if refined.Capped > best.Capped {
			best = refined
		}
		perf := 100 * heur.Capped / best.Capped
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", tc.DgemmN),
			fmt.Sprintf("%d", tc.Nodes),
			fmtF(best.Capped),
			fmt.Sprintf("%d", rootDegree(dary.Hierarchy)),
			fmt.Sprintf("%d", rootDegree(heur.Hierarchy)),
			fmt.Sprintf("%.1f%%", perf),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper shape: the heuristic matches the optimum at the extremes (tiny and huge problems) and stays near 90% in the mid-range",
		"'homo. deg.' is the degree selected by the complete-spanning-d-ary-tree algorithm of [10]; 'best' additionally considers the swap-refined heuristic (mixed trees can beat pure d-ary trees)")
	return rep, nil
}

// rootDegree returns the root agent's child count, the paper's "degree"
// statistic for a deployment.
func rootDegree(h *hierarchy.Hierarchy) int {
	return h.Degree(h.Root())
}
