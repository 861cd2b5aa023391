package core_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// testRequest builds a planning request on a homogeneous platform with the
// repository's reference calibration (400 MFlop/s nodes, 100 Mb/s links —
// see internal/experiments).
func testRequest(t *testing.T, n int, power float64, dgemmN int) core.Request {
	t.Helper()
	return core.Request{
		Platform: platform.Homogeneous("test", n, power, 100),
		Costs:    model.DIETDefaults(),
		Wapp:     workload.DGEMM{N: dgemmN}.MFlop(),
	}
}

func TestHeuristicAgentLimitedDeploysOnePlusOne(t *testing.T) {
	// DGEMM 10x10 is tiny: the agent is the bottleneck and any extra server
	// hurts (Figs. 2–3). The heuristic must deploy one agent + one server.
	req := testRequest(t, 21, 400, 10)
	plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	s := plan.Hierarchy.ComputeStats()
	if s.Agents != 1 || s.Servers != 1 {
		t.Fatalf("want 1 agent + 1 server, got %d agents + %d servers\n%s", s.Agents, s.Servers, plan.Hierarchy)
	}
	if plan.Eval.Bottleneck != model.BottleneckAgent {
		t.Errorf("bottleneck = %v, want agent", plan.Eval.Bottleneck)
	}
}

func TestHeuristicServiceLimitedDeploysStar(t *testing.T) {
	// DGEMM 1000x1000 is huge: servers are the bottleneck; the heuristic
	// should use every node in a star (Table 4 row 4, Fig. 7).
	req := testRequest(t, 21, 400, 1000)
	plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	s := plan.Hierarchy.ComputeStats()
	if s.Agents != 1 {
		t.Errorf("want a star (1 agent), got %d agents\n%s", s.Agents, plan.Hierarchy)
	}
	if s.Servers != 20 {
		t.Errorf("want 20 servers, got %d", s.Servers)
	}
	if plan.Eval.Bottleneck != model.BottleneckService {
		t.Errorf("bottleneck = %v, want service", plan.Eval.Bottleneck)
	}
}

func smallHeterogeneousRequest(dgemmN int) core.Request {
	return core.Request{
		Platform: &platform.Platform{
			Name:      "small",
			Bandwidth: 100,
			Nodes: []platform.Node{
				{Name: "n0", Power: 500},
				{Name: "n1", Power: 420},
				{Name: "n2", Power: 380},
				{Name: "n3", Power: 300},
				{Name: "n4", Power: 220},
				{Name: "n5", Power: 150},
			},
		},
		Costs: model.DIETDefaults(),
		Wapp:  workload.DGEMM{N: dgemmN}.MFlop(),
	}
}

func TestHeuristicMatchesExhaustiveOnSmallPools(t *testing.T) {
	// On pools small enough for exhaustive search the heuristic should land
	// within 75% of the true optimum. (The paper reports 89% in its worst
	// case; the faithful algorithm always drafts the most powerful node as
	// root agent, which the true optimum sometimes avoids on heavily
	// service-limited workloads — see TestSwapRefinerClosesTheGap.)
	for _, dgemmN := range []int{10, 60, 100, 200} {
		req := smallHeterogeneousRequest(dgemmN)
		opt, err := (&baseline.Exhaustive{}).PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("dgemm %d: exhaustive: %v", dgemmN, err)
		}
		heur, err := core.NewHeuristic().PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("dgemm %d: heuristic: %v", dgemmN, err)
		}
		ratio := heur.Capped / opt.Capped
		t.Logf("dgemm %4d: heuristic %.2f vs optimal %.2f req/s (%.1f%%)", dgemmN, heur.Capped, opt.Capped, 100*ratio)
		if ratio < 0.75 {
			t.Errorf("dgemm %d: heuristic achieves only %.1f%% of optimal\nheuristic:\n%s\noptimal:\n%s",
				dgemmN, 100*ratio, heur.Hierarchy, opt.Hierarchy)
		}
		if ratio > 1.0000001 {
			t.Errorf("dgemm %d: heuristic (%.4f) beat the exhaustive optimum (%.4f): exhaustive search is broken", dgemmN, heur.Capped, opt.Capped)
		}
	}
}

func TestHeuristicRespectsDemand(t *testing.T) {
	// With a demand far below capacity the heuristic must not over-deploy.
	req := testRequest(t, 45, 400, 310)
	unbounded, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	req.Demand = workload.Demand(unbounded.Eval.Rho / 4)
	bounded, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("Plan with demand: %v", err)
	}
	if bounded.NodesUsed >= unbounded.NodesUsed {
		t.Errorf("demand-capped plan uses %d nodes, unbounded uses %d; want fewer", bounded.NodesUsed, unbounded.NodesUsed)
	}
	if bounded.Capped < float64(req.Demand)*0.95 {
		t.Errorf("demand-capped plan delivers %.2f req/s, demand is %.2f", bounded.Capped, float64(req.Demand))
	}
}

func TestHeuristicBuildsMultiLevelWhenProfitable(t *testing.T) {
	// DGEMM 310x310 on 45 nodes: a pure star is agent-limited; the optimal
	// shape uses intermediate agents (Table 4 row 3). The heuristic should
	// beat the star.
	req := testRequest(t, 45, 400, 310)
	heur, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("heuristic: %v", err)
	}
	star, err := (&baseline.Star{}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("star: %v", err)
	}
	t.Logf("heuristic: %s", heur.Summary())
	t.Logf("star:      %s", star.Summary())
	if heur.Capped <= star.Capped {
		t.Errorf("heuristic (%.2f) should beat the star (%.2f) on DGEMM 310 with 45 nodes", heur.Capped, star.Capped)
	}
	if heur.Hierarchy.ComputeStats().Agents < 2 {
		t.Errorf("expected a multi-level hierarchy, got:\n%s", heur.Hierarchy)
	}
}

func TestSwapRefinerClosesTheGap(t *testing.T) {
	// The swap refiner should recover most of the heuristic's gap to the
	// exhaustive optimum on service-limited small pools, and must never
	// make a plan worse.
	for _, dgemmN := range []int{10, 60, 100, 200} {
		req := smallHeterogeneousRequest(dgemmN)
		opt, err := (&baseline.Exhaustive{}).PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("dgemm %d: exhaustive: %v", dgemmN, err)
		}
		heur, err := core.NewHeuristic().PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("dgemm %d: heuristic: %v", dgemmN, err)
		}
		refined, err := (&core.SwapRefiner{}).PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("dgemm %d: refiner: %v", dgemmN, err)
		}
		if refined.Capped < heur.Capped {
			t.Errorf("dgemm %d: refiner made the plan worse: %.2f < %.2f", dgemmN, refined.Capped, heur.Capped)
		}
		ratio := refined.Capped / opt.Capped
		t.Logf("dgemm %4d: refined %.2f vs optimal %.2f req/s (%.1f%%)", dgemmN, refined.Capped, opt.Capped, 100*ratio)
		if ratio < 0.9 {
			t.Errorf("dgemm %d: refined plan achieves only %.1f%% of optimal", dgemmN, 100*ratio)
		}
	}
}

// TestSwapRefinerNamesItsPlan: on a homogeneous 10-node pool at DGEMM 310
// no move improves Algorithm 1's plan, so the refiner returns that plan —
// under its own name, since it is the heuristic+swap planner's answer.
func TestSwapRefinerNamesItsPlan(t *testing.T) {
	req := testRequest(t, 10, 400, 310)
	heur, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := (&core.SwapRefiner{}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Planner != "heuristic+swap" {
		t.Errorf("refined plan is labelled %q, want heuristic+swap", refined.Planner)
	}
	if refined.Capped != heur.Capped || refined.NodesUsed != heur.NodesUsed {
		t.Errorf("refined plan (capped %g, %d nodes) is not Algorithm 1's (capped %g, %d nodes)",
			refined.Capped, refined.NodesUsed, heur.Capped, heur.NodesUsed)
	}
}

func TestHeuristicPlanIsValidAndWithinPlatform(t *testing.T) {
	p, err := scenario.Spec{Family: scenario.Clustered, Name: "gen", N: 60, MinPower: 50, MaxPower: 800, Seed: 42}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Platform: p, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop()}
	plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if err := plan.Hierarchy.Validate(hierarchy.Final); err != nil {
		t.Errorf("invalid final hierarchy: %v", err)
	}
	if err := plan.Hierarchy.CheckAgainstPlatform(p); err != nil {
		t.Errorf("plan inconsistent with platform: %v", err)
	}
	if plan.Eval.Rho <= 0 || math.IsInf(plan.Eval.Rho, 0) {
		t.Errorf("nonsensical throughput %g", plan.Eval.Rho)
	}
}

// cancelAfter is a context that reports cancellation from its limit+1-th
// Err poll on: the planner polls once up front and once per growth
// iteration, so it interrupts a plan deterministically mid-growth.
type cancelAfter struct {
	context.Context
	polls, limit int
}

func (c *cancelAfter) Err() error {
	c.polls++
	if c.polls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestCancelledPlanKeepsItsTrace interrupts a plan in its fourth growth
// iteration and asserts the trace still closes the grow phase and carries
// the work counters: the interrupted plan is the one worth reading.
func TestCancelledPlanKeepsItsTrace(t *testing.T) {
	tr := obs.NewTraceRecorder()
	ctx := &cancelAfter{Context: obs.ContextWithTrace(context.Background(), tr), limit: 4}
	_, err := core.NewHeuristic().PlanContext(ctx, testRequest(t, 60, 400, 310))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PlanContext error = %v, want context.Canceled", err)
	}
	trace := tr.Trace()
	grow := false
	for _, ph := range trace.Phases {
		grow = grow || ph.Name == "grow"
	}
	if !grow {
		t.Errorf("cancelled plan's trace has no grow phase: %+v", trace.Phases)
	}
	if got := trace.Counters["iterations"]; got != 3 {
		t.Errorf("iterations counter = %d, want 3", got)
	}
	if trace.Counters["evaluator_ops"] == 0 {
		t.Errorf("cancelled plan's trace has no evaluator_ops: %+v", trace.Counters)
	}
}
