// Package portfolio runs several deployment planners over the same
// request and returns the best plan, in the spirit of algorithm-portfolio
// schedulers: Algorithm 1 is strongest on scheduling-rich heterogeneous
// pools, the swap refinement wins when powerful nodes should serve rather
// than schedule, the flat star occasionally beats both on tiny or
// agent-limited pools, the complete-spanning-d-ary search of [10] dominates
// on homogeneous clusters, and the exhaustive search is the ground truth on
// very small pools. No single planner wins everywhere; the portfolio takes
// the per-request maximum, so its predicted throughput is ≥ every member's
// on every platform — a property the test suite enforces across the whole
// scenario corpus.
//
// The portfolio is a sequential fold over a fixed table, on the caller's
// goroutine: every eligible variant runs, in table order, and the
// incumbent is replaced only by a plan with a strictly higher
// demand-capped throughput or, at equal throughput, strictly fewer nodes
// (the paper's "preferring the deployment using the fewest resources"),
// so table position breaks exact ties. The answer is therefore a function
// of the request alone. The fold is all-or-nothing: a context that fires
// before the last eligible variant has finished yields the context's
// error, never the best plan so far — a caller may cache the answer under
// the request's address.
package portfolio

import (
	"context"
	"fmt"
	"strings"
	"time"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/obs"
)

// variant is one row of the portfolio's table.
type variant struct {
	name    string
	planner core.Planner
	// maxNodes skips the variant on larger pools (0 = no limit).
	maxNodes int
}

var (
	algorithm1 = core.NewHeuristic()
	swap       = &core.SwapRefiner{Inner: algorithm1}

	// table is the portfolio: its order is the order of the fold and of the
	// reported results, so earlier rows win exact ties. Beyond 6 nodes the
	// exhaustive enumeration's Θ(n·nⁿ) latency (seconds and up) buys
	// nothing.
	table = [...]variant{
		{name: "heuristic+swap", planner: swap},
		{name: "heuristic", planner: algorithm1},
		{name: "star", planner: &baseline.Star{}},
		{name: "homogeneous", planner: &baseline.OptimalDAry{}},
		{name: "exhaustive", planner: &baseline.Exhaustive{}, maxNodes: 6},
	}
)

// Result reports one variant's outcome.
type Result struct {
	// Variant is the variant name.
	Variant string `json:"variant"`
	// Winner marks the variant whose plan was returned.
	Winner bool `json:"winner,omitempty"`
	// Skipped explains why the variant did not run ("" = it ran).
	Skipped string `json:"skipped,omitempty"`
	// Err is the planner error, if any ("" = success).
	Err string `json:"error,omitempty"`
	// Rho, Capped and NodesUsed summarise the variant's plan.
	Rho       float64 `json:"rho,omitempty"`
	Capped    float64 `json:"capped,omitempty"`
	NodesUsed int     `json:"nodes_used,omitempty"`
	// ElapsedMS is the wall time the variant would have taken alone:
	// Algorithm 1's time is counted on both rows built on its plan.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// Planner is the portfolio; it implements core.Planner.
type Planner struct{}

// New returns the portfolio planner.
func New() *Planner { return &Planner{} }

// Name implements core.Planner.
func (*Planner) Name() string { return "portfolio" }

// Plan implements core.Planner.
//
//adeptvet:allow ctxflow context-free convenience wrapper; callers that want cancellation use PlanContext
func (p *Planner) Plan(req core.Request) (*core.Plan, error) {
	return p.PlanContext(context.Background(), req)
}

// PlanContext implements core.Planner.
func (p *Planner) PlanContext(ctx context.Context, req core.Request) (*core.Plan, error) {
	plan, _, err := p.PlanWithStats(ctx, req)
	return plan, err
}

// PlanWithStats runs every eligible variant and returns the winning plan
// plus per-variant results (one per table row, in table order). The
// winning plan's Planner field is "portfolio:<variant>". An error is
// returned when no variant produced a plan, or when ctx fired before all
// of them had finished.
func (p *Planner) PlanWithStats(ctx context.Context, req core.Request) (*core.Plan, []Result, error) {
	// The pool is resolved once for every variant, and expanded into nodes
	// once for the baselines that read them.
	req, err := req.Resolve()
	if err != nil {
		return nil, nil, err
	}
	req.Platform = req.NodePlatform()
	tr := obs.TraceFrom(ctx)
	// Variants get a detached trace context: five planners' inner phases
	// (sort_nodes, grow, ...) under the same names would say nothing about
	// the request. The portfolio reports per-variant spans instead.
	variantCtx := obs.DetachTrace(ctx)
	defer tr.Phase("race")()

	// Algorithm 1 is planned once: the heuristic row reports its plan and
	// the heuristic+swap row refines it.
	var base *core.Plan
	var baseErr error
	baseMS := timed(func() { base, baseErr = algorithm1.PlanContext(variantCtx, req) })

	results := make([]Result, len(table))
	var errs []string
	var best *core.Plan
	winner := -1
	for i, v := range table {
		r := &results[i]
		r.Variant = v.name
		if n := req.Columns.Len(); v.maxNodes > 0 && n > v.maxNodes {
			r.Skipped = fmt.Sprintf("pool of %d exceeds variant limit %d", n, v.maxNodes)
			continue
		}
		var plan *core.Plan
		var err error
		switch v.planner {
		case algorithm1:
			plan, err, r.ElapsedMS = base, baseErr, baseMS
		case swap:
			if err = baseErr; err == nil {
				r.ElapsedMS = baseMS + timed(func() { plan, err = swap.Refine(variantCtx, req, base) })
			}
		default:
			r.ElapsedMS = timed(func() { plan, err = v.planner.PlanContext(variantCtx, req) })
		}
		// All or nothing: the best of the variants that happened to finish
		// is not the answer to the request (and a dead context never
		// produces a plan).
		if ctxErr := core.CheckContext(ctx, "portfolio"); ctxErr != nil {
			return nil, nil, ctxErr
		}
		if err != nil {
			r.Err = err.Error()
			errs = append(errs, v.name+": "+r.Err)
			continue
		}
		r.Rho, r.Capped, r.NodesUsed = plan.Eval.Rho, plan.Capped, plan.NodesUsed
		if best == nil || plan.Capped > best.Capped ||
			(plan.Capped == best.Capped && plan.NodesUsed < best.NodesUsed) {
			best, winner = plan, i
		}
	}

	if best == nil {
		return nil, results, fmt.Errorf("portfolio: every variant failed: %s", strings.Join(errs, "; "))
	}
	results[winner].Winner = true
	for _, r := range results {
		tr.Variant(obs.VariantSpan{Name: r.Variant, ElapsedMS: r.ElapsedMS, Skipped: r.Skipped != "", Err: r.Err})
	}
	tr.SetWinner(table[winner].name)
	best.Planner = "portfolio:" + table[winner].name
	return best, results, nil
}

// timed runs f and returns its wall time in milliseconds.
//
//adeptvet:allow nondet per-variant wall-time stats for the report; winner selection never reads them
func timed(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / float64(time.Millisecond)
}
