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
// Every planner reads a pool in one form, platform.Columns: a power column,
// a link column and node names. A request that carries only a Platform is
// converted once, where a planner takes it (Request.Resolve), and that
// conversion is its validation; a request that carries Columns is planned
// from them as they are. The sorted pool holds nodes as int32 indices into
// the columns — at either granularity — and names a node only when the plan
// reaches it, so a generated fleet (whose names are a function of the
// index) is planned without a name existing for any node the plan does not
// deploy. Name order — sort_nodes' tie-break — is the columns' to decide:
// string order over a platform's own names, integer keys over generated
// ones ("pool-10000" sorts before "pool-2000"). The plan is the same, byte
// for byte, whichever form the pool arrived in (columndiff_test.go).
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
	// Platform is the pool of candidate nodes plus the link bandwidth, in
	// the exchange format. It may be nil when Columns is set.
	Platform *platform.Platform
	// Columns, when set, is the pool in the form every planner reads, and
	// it is what they read: Platform, if also set, must describe the same
	// pool. Columns arrive valid — from Platform.Columns, or range-checked
	// by their producer (scenario.Spec.Columns) — so no planner re-checks
	// them. When nil, Resolve converts Platform.
	Columns *platform.Columns
	// Costs holds the middleware cost parameters (Table 3).
	Costs model.Costs
	// Wapp is the service cost of one application request in MFlop.
	Wapp float64
	// Demand optionally caps the useful throughput (client volume in
	// requests/second); zero means plan for maximum throughput.
	Demand workload.Demand
}

// Resolve is the one way into a request's pool: it returns the request
// with Columns set, and checks it. Columns already set are taken as they
// are, and only the O(1) ValidateModel runs; otherwise Platform is
// converted (Platform.Columns), which is its validation. A planner
// resolves once, where it takes the request, and passes the result on.
func (r Request) Resolve() (Request, error) {
	if r.Columns == nil {
		if r.Platform == nil {
			return r, errors.New("core: nil platform")
		}
		cols, err := r.Platform.Columns()
		if err != nil {
			return r, err
		}
		r.Columns = cols
	}
	return r, r.ValidateModel(r.Columns.Len())
}

// Validate checks the request: Resolve, with the result thrown away.
func (r *Request) Validate() error {
	_, err := r.Resolve()
	return err
}

// NodePlatform returns the pool as a node list, for planners that read
// whole nodes: Platform when the request carries one, otherwise the
// expansion of Columns (a fresh platform per call).
func (r *Request) NodePlatform() *platform.Platform {
	if r.Platform != nil {
		return r.Platform
	}
	return r.Columns.Platform()
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
// final-deployment invariants and against the pool, and wraps it in a Plan.
// The pool check costs O(deployment) on a resolved request.
func Finalize(name string, req Request, h *hierarchy.Hierarchy) (*Plan, error) {
	if err := h.Validate(hierarchy.Final); err != nil {
		return nil, fmt.Errorf("core: %s produced invalid deployment: %w", name, err)
	}
	req, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	if err := h.CheckAgainstColumns(req.Columns); err != nil {
		return nil, fmt.Errorf("core: %s deployment inconsistent with platform: %w", name, err)
	}
	eval := h.Evaluate(req.Costs, req.Columns.Bandwidth, req.Wapp)
	return &Plan{
		Hierarchy: h,
		Eval:      eval,
		Capped:    req.Demand.Cap(eval.Rho),
		NodesUsed: h.Len(),
		Planner:   name,
	}, nil
}
