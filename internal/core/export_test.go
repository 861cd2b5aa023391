package core

import "context"

// PlacementEvaluator lets the external tests drive the incremental
// Evaluator and the NaiveEvaluator reference through growth's interface.
type PlacementEvaluator = placementEvaluator

// refPlanner is Algorithm 1 with its pool form or its evaluator pinned
// instead of derived from the input: it runs the body PlanContext runs
// (Heuristic.plan), over a class index built with no size or
// compressibility floor when classes is set, per node otherwise, and
// through the naive evaluator when naive is set.
type refPlanner struct {
	Heuristic
	classes bool
	naive   bool
}

// PlanContext implements Planner.
func (r *refPlanner) PlanContext(ctx context.Context, req Request) (*Plan, error) {
	req, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	if err := CheckContext(ctx, r.Name()); err != nil {
		return nil, err
	}
	var ix *ClassIndex
	if r.classes {
		ix = buildClassIndexCapped(req.Columns, req.Columns.Len())
	}
	var ev placementEvaluator = NewEvaluator(req.Costs, req.Columns.Bandwidth, req.Wapp)
	if r.naive {
		ev = NewNaiveEvaluator(req.Costs, req.Columns.Bandwidth, req.Wapp)
	}
	return r.plan(ctx, req, ix, ev)
}

// NewHeuristicNodeSpace returns the planner pinned to node granularity:
// the class collapse never engages. The differential battery and the
// golden digests use it as the reference side.
func NewHeuristicNodeSpace() Planner { return &refPlanner{} }

// NewHeuristicClassSpace returns the planner pinned to class granularity
// regardless of pool size or compressibility. The differential battery uses
// it as the subject side.
func NewHeuristicClassSpace() Planner { return &refPlanner{classes: true} }

// NewHeuristicNaive returns the planner backed by the full-recompute
// NaiveEvaluator at node granularity: the pre-incremental cost profile,
// which the property tests hold to NewHeuristic's deployments and the
// Naive benchmarks time against it.
func NewHeuristicNaive() Planner { return &refPlanner{naive: true} }
