// Package portfolio runs several deployment planners over the same
// request and returns the best plan, in the spirit of algorithm-portfolio
// schedulers: Algorithm 1, refined by the swap refiner, is strongest on
// heterogeneous pools, the complete-spanning-d-ary search of [10] dominates
// on homogeneous clusters, and the exhaustive search is the ground truth on
// very small pools. No single planner wins everywhere; the portfolio takes
// the per-request maximum, so its predicted throughput is ≥ every member's
// on every platform — a property the test suite enforces across the whole
// scenario corpus, against the plain heuristic and the star as well.
// Neither of those two is a row, because neither can win: the refiner
// returns Algorithm 1's plan unless its own beats it, and Algorithm 1
// scores the full star itself, so a star is never ahead on throughput and,
// using every node, never ahead on a tie.
//
// The portfolio is a sequential fold over a fixed table, on the caller's
// goroutine: every eligible variant runs, in table order, and the
// incumbent is replaced only by a plan that beats it (core.Plan.Beats: a
// strictly higher demand-capped throughput or, at equal throughput,
// strictly fewer nodes), so table position breaks exact ties. The answer
// is therefore a function of the request alone. The fold is
// all-or-nothing: a context that fires before the last eligible variant
// has finished yields the context's error, never the best plan so far — a
// caller may cache the answer under the request's address.
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

// table is the portfolio: its order is the order of the fold and of the
// reported results, so earlier rows win exact ties. Beyond 6 nodes the
// exhaustive enumeration's Θ(n·nⁿ) latency (seconds and up) buys nothing.
var table = [...]variant{
	{name: "heuristic+swap", planner: &core.SwapRefiner{}},
	{name: "homogeneous", planner: &baseline.OptimalDAry{}},
	{name: "exhaustive", planner: &baseline.Exhaustive{}, maxNodes: 6},
}

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
	// ElapsedMS is the variant's wall time: the heuristic+swap row's
	// includes Algorithm 1, which it plans itself.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// Planner is the portfolio; it implements core.Planner.
type Planner struct{}

// New returns the portfolio planner.
func New() *Planner { return &Planner{} }

// Name implements core.Planner.
func (*Planner) Name() string { return "portfolio" }

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
	// The pool is resolved once, for every variant.
	req, err := req.Resolve()
	if err != nil {
		return nil, nil, err
	}
	tr := obs.TraceFrom(ctx)
	// Variants get a detached trace context: the planners' inner phases
	// (sort_nodes, grow, ...) under the same names would say nothing about
	// the request. The portfolio reports per-variant spans instead.
	variantCtx := obs.DetachTrace(ctx)
	defer tr.Phase("race")()

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
		r.ElapsedMS = timed(func() { plan, err = v.planner.PlanContext(variantCtx, req) })
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
		if best == nil || plan.Beats(best) {
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
	t := obs.StartTimer()
	f()
	return float64(t.Elapsed()) / float64(time.Millisecond)
}
