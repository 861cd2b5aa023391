// Package core implements the paper's primary contribution: automatic
// deployment planning for hierarchical NES middleware on heterogeneous
// platforms (Algorithm 1 of §4), plus the planner abstractions shared with
// the baseline planners of internal/baseline.
//
// A planner consumes a platform description (heterogeneous node powers,
// homogeneous link bandwidth), the middleware cost parameters of Table 3,
// the application service cost Wapp, and an optional client demand. It
// produces a deployment hierarchy that maximises the completed-request
// throughput ρ = min(ρ_sched, ρ_service), preferring the deployment using
// the fewest resources when several reach the maximum.
//
// The heuristic plans over one structure, the sorted pool (pool.go): the
// sort_nodes order stored as runs of consecutive nodes sharing one (power,
// link bandwidth) spec, with every spec scan written once over runs. Large
// pools drawn from a machine catalogue build it from spec equivalence
// classes (classindex.go) — a few dozen runs for a million nodes, planned
// in well under a second; other pools build it with one run per node. The
// plan is the same, byte for byte, whichever way the pool was built, and a
// plan is computed on the calling goroutine alone — identical at any
// GOMAXPROCS.
//
// A class's members are indices into a pool source (poolSource), of which
// there are two: a platform's node list, whose names are the nodes' own
// strings, and a pool in columnar form (platform.Columns, Request.Columns:
// a power column, a link column, names a function of the index), from
// which the heuristic plans a generated fleet without a Node or a name
// existing for any node the plan does not deploy. Name order — sort_nodes'
// tie-break — is the source's to decide: a columnar source decides it on
// integers, and not by index, since "pool-10000" sorts before "pool-2000".
// The plan is the same, byte for byte, whichever form the pool arrived in
// (columndiff_test.go).
package core

import (
	"context"
	"errors"
	"fmt"

	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/workload"
)

// Request bundles everything a planner needs for one planning run.
type Request struct {
	// Platform is the pool of candidate nodes plus the link bandwidth.
	Platform *platform.Platform
	// Columns, when set, is the pool in columnar form and stands in for
	// Platform, which may then be nil. Only the Heuristic reads it — it plans
	// a large catalogue fleet from the two columns and names the few hundred
	// nodes it deploys; every other planner needs Platform (and refuses a
	// request without one), which whoever holds the columns expands for it
	// (Columns.Platform). Columns must arrive range-checked — their
	// producer, scenario.Spec.Columns, returns no others: the Heuristic does
	// not repeat that O(n) pass.
	Columns *platform.Columns
	// Costs holds the middleware cost parameters (Table 3).
	Costs model.Costs
	// Wapp is the service cost of one application request in MFlop.
	Wapp float64
	// Demand optionally caps the useful throughput (client volume in
	// requests/second); zero means plan for maximum throughput.
	Demand workload.Demand
}

// Validate checks the request.
func (r *Request) Validate() error {
	if r.Platform == nil {
		return errors.New("core: nil platform")
	}
	if err := r.Platform.Validate(); err != nil {
		return err
	}
	return r.ValidateModel(len(r.Platform.Nodes))
}

// bandwidth returns the pool's default link bandwidth B, from whichever
// form the request carries the pool in.
func (r *Request) bandwidth() float64 {
	if r.Columns != nil {
		return r.Columns.Bandwidth
	}
	return r.Platform.Bandwidth
}

// poolName returns the platform's name, likewise.
func (r *Request) poolName() string {
	if r.Columns != nil {
		return r.Columns.Name
	}
	return r.Platform.Name
}

// ValidateModel is the O(1) part of Validate — the cost parameters, the
// service cost and the size of the pool — for a caller that knows how many
// nodes the platform holds without holding the platform.
func (r *Request) ValidateModel(poolNodes int) error {
	if err := r.Costs.Validate(); err != nil {
		return err
	}
	if r.Wapp <= 0 {
		return fmt.Errorf("core: Wapp must be positive, got %g", r.Wapp)
	}
	if poolNodes < 2 {
		return fmt.Errorf("core: need at least 2 nodes (one agent, one server), got %d", poolNodes)
	}
	return nil
}

// Plan is a planner's output: the deployment plus its predicted performance.
type Plan struct {
	// Hierarchy is the deployment tree.
	Hierarchy *hierarchy.Hierarchy
	// Eval is the §3 model evaluation of the deployment.
	Eval model.Evaluation
	// Capped is min(Eval.Rho, demand): the useful throughput.
	Capped float64
	// NodesUsed counts the physical nodes consumed by the deployment.
	NodesUsed int
	// Planner names the algorithm that produced the plan.
	Planner string
	// ClassPlanned reports that the planner's pool was built from spec
	// equivalence classes (see ClassIndex); false means one run per node.
	ClassPlanned bool
	// PoolClasses is the number of (power, link) spec equivalence classes
	// in the pool when ClassPlanned is set; zero otherwise.
	PoolClasses int
}

// XML returns the GoDIET-style deployment XML (the write_xml step).
func (p *Plan) XML() (string, error) {
	return p.Hierarchy.MarshalXMLString()
}

// Summary renders a one-line description for reports.
func (p *Plan) Summary() string {
	s := p.Hierarchy.ComputeStats()
	return fmt.Sprintf("%s: ρ=%.2f req/s (sched=%.2f, service=%.2f, bottleneck=%s), %d nodes (%d agents, %d servers), depth %d, degree [%d,%d]",
		p.Planner, p.Eval.Rho, p.Eval.Sched, p.Eval.Service, p.Eval.Bottleneck,
		s.Nodes, s.Agents, s.Servers, s.Depth, s.MinDegree, s.MaxDegree)
}

// Planner is the common planning interface implemented by the heuristic and
// by every baseline.
type Planner interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Plan computes a deployment for the request.
	Plan(req Request) (*Plan, error)
	// PlanContext computes a deployment for the request, honouring the
	// context's cancellation and deadline. Long-running planners (the
	// heuristic's growth loop, the exhaustive enumeration, the d-ary degree
	// sweep) poll the context between iterations and return ctx.Err()
	// wrapped in a planner error when it fires; cheap planners may only
	// check once up front. Plan(req) is equivalent to
	// PlanContext(context.Background(), req).
	PlanContext(ctx context.Context, req Request) (*Plan, error)
}

// CheckContext polls ctx and wraps its error for planner error messages.
// Planners call it between iterations of their expensive loops; the nil
// fast path is a single atomic load for contexts that cannot fire.
func CheckContext(ctx context.Context, planner string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s interrupted: %w", planner, err)
	}
	return nil
}

// Finalize evaluates h against the request, validates it with the paper's
// final-deployment invariants, and wraps it in a Plan.
func Finalize(name string, req Request, h *hierarchy.Hierarchy) (*Plan, error) {
	if err := h.Validate(hierarchy.Final); err != nil {
		return nil, fmt.Errorf("core: %s produced invalid deployment: %w", name, err)
	}
	var err error
	if req.Columns != nil {
		err = h.CheckAgainstColumns(req.Columns)
	} else {
		err = h.CheckAgainstPlatform(req.Platform)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s deployment inconsistent with platform: %w", name, err)
	}
	eval := h.Evaluate(req.Costs, req.bandwidth(), req.Wapp)
	return &Plan{
		Hierarchy: h,
		Eval:      eval,
		Capped:    req.Demand.Cap(eval.Rho),
		NodesUsed: h.Len(),
		Planner:   name,
	}, nil
}
