// Package portfolio races several deployment planners over the same
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
// Variants run concurrently on a bounded goroutine pool with a shared
// context: cancelling the caller's context cancels every in-flight
// planner, and once a frugal variant (one that already stops at the
// fewest nodes meeting the demand) proves the client demand met, the
// stragglers are cut off early — their best possible outcome could
// neither raise the demand-capped throughput nor win the fewer-nodes
// tie-break.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	gort "runtime"
	"strings"
	"sync"
	"time"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/obs"
)

// Variant is one planner in the race.
type Variant struct {
	// Name labels the variant in stats (defaults to Planner.Name()).
	Name string
	// Planner runs the variant. It must be safe for concurrent use, as all
	// stock planners are.
	Planner core.Planner
	// MaxNodes skips the variant on pools larger than this (0 = no limit).
	// The exhaustive variant uses it to stay within its Θ(n·nⁿ) budget.
	MaxNodes int
	// Frugal marks planners that stop growing the moment the client
	// demand is met, i.e. that already prefer the fewest nodes at equal
	// capped throughput. Only a frugal variant's demand-met finish
	// triggers the early cutoff: a non-frugal variant (the star deploys
	// the whole pool) meeting demand first must not cancel a frugal
	// straggler that would win the fewer-nodes tie-break.
	Frugal bool
}

// ExhaustiveCutoff is the default pool-size ceiling for the exhaustive
// variant: beyond 6 nodes the enumeration's latency (seconds and up) stops
// being a useful race entrant.
const ExhaustiveCutoff = 6

// DefaultVariants returns the stock portfolio. Order matters only for
// tie-breaking: earlier variants win exact throughput-and-size ties.
func DefaultVariants() []Variant {
	return []Variant{
		{Name: "heuristic+swap", Planner: &core.SwapRefiner{Inner: core.NewHeuristic()}, Frugal: true},
		{Name: "heuristic", Planner: core.NewHeuristic(), Frugal: true},
		{Name: "star", Planner: &baseline.Star{}},
		{Name: "homogeneous", Planner: &baseline.OptimalDAry{}},
		{Name: "exhaustive", Planner: &baseline.Exhaustive{}, MaxNodes: ExhaustiveCutoff},
	}
}

// Result reports one variant's outcome in a race.
type Result struct {
	// Variant is the variant name.
	Variant string `json:"variant"`
	// Winner marks the variant whose plan was returned.
	Winner bool `json:"winner,omitempty"`
	// Skipped explains why the variant did not run ("" = it ran).
	Skipped string `json:"skipped,omitempty"`
	// Err is the planner error, if any ("" = success). A variant cut off
	// by the early-cutoff rule reports a context error here.
	Err string `json:"error,omitempty"`
	// Rho, Capped and NodesUsed summarise the variant's plan.
	Rho       float64 `json:"rho,omitempty"`
	Capped    float64 `json:"capped,omitempty"`
	NodesUsed int     `json:"nodes_used,omitempty"`
	// ElapsedMS is the variant's planning wall time.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// Planner races a set of variants; it implements core.Planner.
type Planner struct {
	// Variants is the race field (default DefaultVariants).
	Variants []Variant
}

// New returns a portfolio planner with the stock variants.
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

// PlanWithStats races the variants and returns the winning plan plus
// per-variant stats (index-aligned with the variant set). The winning
// plan's Planner field is "portfolio:<variant>". An error is returned only
// when no variant produced a plan.
func (p *Planner) PlanWithStats(ctx context.Context, req core.Request) (*core.Plan, []Result, error) {
	variants := p.Variants
	if len(variants) == 0 {
		variants = DefaultVariants()
	}
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	if err := core.CheckContext(ctx, "portfolio"); err != nil {
		return nil, nil, err
	}

	// At most one variant per core runs at a time.
	par := min(len(variants), gort.GOMAXPROCS(0))

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	tr := obs.TraceFrom(ctx)
	// Variants get a detached trace context: their inner phases (sort_nodes,
	// grow, ...) would interleave nondeterministically across goroutines in
	// the caller's recorder. The race reports per-variant spans instead.
	variantCtx := obs.DetachTrace(raceCtx)

	results := make([]Result, len(variants))
	plans := make([]*core.Plan, len(variants))
	sem := make(chan struct{}, par)
	endRace := tr.Phase("race")
	var wg sync.WaitGroup
	for i, v := range variants {
		name := v.Name
		if name == "" {
			name = v.Planner.Name()
		}
		results[i] = Result{Variant: name}
		if v.MaxNodes > 0 && len(req.Platform.Nodes) > v.MaxNodes {
			results[i].Skipped = fmt.Sprintf("pool of %d exceeds variant limit %d", len(req.Platform.Nodes), v.MaxNodes)
			continue
		}
		wg.Add(1)
		go func(i int, v Variant) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-raceCtx.Done():
				results[i].Err = raceCtx.Err().Error()
				return
			}
			//adeptvet:allow nondet per-variant wall-time stats for the race report; winner selection never reads them
			start := time.Now()
			plan, err := v.Planner.PlanContext(variantCtx, req)
			//adeptvet:allow nondet per-variant wall-time stats for the race report; winner selection never reads them
			results[i].ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
			if err != nil {
				results[i].Err = err.Error()
				return
			}
			plans[i] = plan
			results[i].Rho = plan.Eval.Rho
			results[i].Capped = plan.Capped
			results[i].NodesUsed = plan.NodesUsed
			// Early cutoff: once a frugal variant meets the demand, no
			// straggler can raise the demand-capped throughput, and the
			// fewer-nodes tie-break is already in safe hands — a frugal
			// plan stopped growing the moment the demand was met.
			if v.Frugal && req.Demand.Bounded() && plan.Capped >= float64(req.Demand) {
				cancel()
			}
		}(i, v)
	}
	wg.Wait()
	endRace()

	best := -1
	for i, plan := range plans {
		if plan == nil {
			continue
		}
		if best < 0 || plan.Capped > plans[best].Capped ||
			(plan.Capped == plans[best].Capped && plan.NodesUsed < plans[best].NodesUsed) {
			best = i
		}
	}
	if best < 0 {
		// Prefer reporting the caller's cancellation over per-variant noise.
		if err := ctx.Err(); err != nil {
			return nil, results, fmt.Errorf("portfolio: %w", err)
		}
		var errs []string
		for _, r := range results {
			if r.Err != "" {
				errs = append(errs, r.Variant+": "+r.Err)
			}
		}
		return nil, results, errors.New("portfolio: every variant failed: " + strings.Join(errs, "; "))
	}
	results[best].Winner = true
	for _, r := range results {
		tr.Variant(obs.VariantSpan{
			Name:      r.Variant,
			ElapsedMS: r.ElapsedMS,
			Skipped:   r.Skipped != "",
			Err:       r.Err,
		})
	}
	tr.SetWinner(results[best].Variant)
	win := *plans[best]
	win.Planner = "portfolio:" + results[best].Variant
	return &win, results, nil
}
