package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/platform"
	"adept/internal/portfolio"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// planners is the one table of planner names: SelectPlanner resolves
// through it and PlannerNames lists it, in this order. The names match
// cmd/adept's -planner flag.
var planners = []struct {
	name string
	make func() core.Planner
}{
	{"heuristic", func() core.Planner { return core.NewHeuristic() }},
	{"heuristic+swap", func() core.Planner { return &core.SwapRefiner{Inner: core.NewHeuristic()} }},
	{"star", func() core.Planner { return &baseline.Star{} }},
	{"balanced", func() core.Planner { return &baseline.Balanced{} }},
	{"dary", func() core.Planner { return &baseline.OptimalDAry{} }},
	{"exhaustive", func() core.Planner { return &baseline.Exhaustive{} }},
	{"portfolio", func() core.Planner { return portfolio.New() }},
}

// SelectPlanner resolves a planner name to a (stateless, reusable)
// planner instance; the empty name selects the heuristic.
func SelectPlanner(name string) (core.Planner, error) {
	if name == "" {
		name = "heuristic"
	}
	for _, p := range planners {
		if p.name == name {
			return p.make(), nil
		}
	}
	return nil, fmt.Errorf("unknown planner %q", name)
}

// PlannerNames lists the names SelectPlanner accepts, for error messages
// and documentation endpoints.
func PlannerNames() []string {
	names := make([]string, len(planners))
	for i, p := range planners {
		names[i] = p.name
	}
	return names
}

// PlanRequest is the JSON body of POST /v1/plan (and each element of a
// batch). Exactly one of Platform (inline), PlatformName (registry
// reference) or Scenario (server-side generation) must be set. The service
// cost comes from Wapp when positive, else from DgemmN (defaulting to the
// paper's 310×310 DGEMM).
type PlanRequest struct {
	Platform     *platform.Platform `json:"platform,omitempty"`
	PlatformName string             `json:"platform_name,omitempty"`
	// Scenario generates the platform server-side from a declarative spec
	// (internal/scenario). Generation is deterministic, so the same spec
	// content-addresses the same cache entry; this is the intended way to
	// plan very large pools (say a million nodes) without shipping every
	// node over JSON.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	Planner  string         `json:"planner,omitempty"`
	Wapp     float64        `json:"wapp,omitempty"`
	DgemmN   int            `json:"dgemm_n,omitempty"`
	Demand   float64        `json:"demand,omitempty"`
	Costs    *model.Costs   `json:"costs,omitempty"`
	// Portfolio runs every stock planner (internal/portfolio) and
	// answers with the best plan plus per-variant stats. Mutually
	// exclusive with Planner (it is a planner selection of its own).
	Portfolio bool `json:"portfolio,omitempty"`
	// TimeoutMillis optionally shortens the server-side planning deadline.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// NoCache forces a fresh planning run (the result still refreshes the
	// cache).
	NoCache bool `json:"no_cache,omitempty"`
	// Trace requests a PlanTrace in the response: per-phase wall times,
	// planner work counters, and (for portfolio runs) per-variant
	// timings. Tracing is off by default and adds no allocations to the
	// cached-hit path; the trace never enters the cache key, so traced
	// and untraced requests share cache entries.
	Trace bool `json:"trace,omitempty"`
}

// planInput is a resolved plan request: the planner, the model inputs and
// the content address over everything that names the plan — but not
// necessarily the pool, which a scenario request only builds on a cache
// miss (request).
type planInput struct {
	planner core.Planner
	key     CacheKey
	// req holds the model inputs. Its Columns are the registry's resident
	// (read-only) columns, or nil: for a scenario, and for an inline
	// platform, which req.Platform holds unchecked.
	req      core.Request
	scenario *scenario.Spec
}

// request returns the core.Request the planner sees, with the pool in
// columns whatever its source — materialising what resolve left out, which
// only a cache miss (and the two handlers that launch what was planned,
// planForLaunch) ever needs. A scenario is drawn as columns (range-checked
// by Spec.Columns: the one validation a generated pool gets); an inline
// platform is converted into columns, which is its one validation, and
// keeps its Platform; a registered platform's columns were built when it
// was written.
func (in *planInput) request(ctx context.Context) (core.Request, error) {
	req := in.req
	var err error
	switch {
	case in.scenario != nil:
		defer obs.TraceFrom(ctx).Phase("generate")()
		if req.Columns, err = in.scenario.Columns(ctx); err != nil {
			return req, fmt.Errorf("generate scenario: %w", err)
		}
	case req.Columns == nil:
		req.Columns, err = req.Platform.Columns()
	}
	return req, err
}

// requestError marks a planning failure as a fault of the request — one
// resolve found, or one only the miss path could find (an inline platform
// with a duplicate node name, a scenario that generates a non-positive or
// non-finite power): planStatus answers it 400.
type requestError struct{ error }

func (e requestError) Unwrap() error { return e.error }

// resolve turns the wire request into a planInput. Beyond digesting an
// inline platform it does O(1) work: it checks everything that can be
// checked without the nodes (the source, the planner, the costs, the pool
// size, a scenario's ranges) and addresses the request by what names its
// platform (planKey). Whether the nodes themselves are valid is left to
// the miss path — a hit proves an identical input already passed.
func (s *Server) resolve(pr *PlanRequest) (*planInput, error) {
	sources := 0
	for _, set := range []bool{pr.Platform != nil, pr.PlatformName != "", pr.Scenario != nil} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return nil, errors.New("set exactly one of platform, platform_name or scenario")
	}

	in := &planInput{}
	name := pr.Planner
	if pr.Portfolio {
		if name != "" && name != "portfolio" {
			return nil, fmt.Errorf("portfolio=true conflicts with planner %q", name)
		}
		name = "portfolio"
	}
	var err error
	if in.planner, err = SelectPlanner(name); err != nil {
		return nil, fmt.Errorf("%v (have %v)", err, PlannerNames())
	}

	if pr.Costs != nil {
		in.req.Costs = *pr.Costs
	} else {
		in.req.Costs = model.DIETDefaults()
	}
	switch {
	case pr.Wapp > 0:
		in.req.Wapp = pr.Wapp
	case pr.DgemmN > 0:
		in.req.Wapp = workload.DGEMM{N: pr.DgemmN}.MFlop()
	default:
		in.req.Wapp = workload.DGEMM{N: 310}.MFlop()
	}
	in.req.Demand = workload.Demand(pr.Demand)

	// source is the digest of whatever names the platform.
	var source [sha256.Size]byte
	var poolNodes int
	switch {
	case pr.Platform != nil:
		in.req.Platform = pr.Platform
		source, poolNodes = pr.Platform.Digest(), len(pr.Platform.Nodes)
	case pr.PlatformName != "":
		var ok bool
		if in.req.Columns, source, ok = s.registry.Resident(pr.PlatformName); !ok {
			return nil, fmt.Errorf("platform %q not registered", pr.PlatformName)
		}
		poolNodes = in.req.Columns.Len()
	case pr.Scenario != nil:
		if pr.Scenario.N > maxScenarioNodes {
			return nil, fmt.Errorf("generate scenario: n %d exceeds the limit of %d nodes", pr.Scenario.N, maxScenarioNodes)
		}
		if err := pr.Scenario.Validate(); err != nil {
			return nil, fmt.Errorf("generate scenario: %v", err)
		}
		in.scenario = pr.Scenario
		source, poolNodes = pr.Scenario.Digest(), pr.Scenario.N
	default:
		return nil, errors.New("missing platform, platform_name or scenario")
	}
	if err := in.req.ValidateModel(poolNodes); err != nil {
		return nil, err
	}
	in.key = planKey(in.planner.Name(), source, in.req.Costs, in.req.Wapp, in.req.Demand)
	return in, nil
}
