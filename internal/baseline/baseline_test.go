package baseline_test

import (
	"testing"
	"testing/quick"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/workload"
)

func request(n int, power float64, dgemmN int) core.Request {
	return core.Request{
		Platform: platform.Homogeneous("b", n, power, 100),
		Costs:    model.DIETDefaults(),
		Wapp:     workload.DGEMM{N: dgemmN}.MFlop(),
	}
}

func heteroRequest(n, dgemmN int, seed int64) core.Request {
	p, err := scenario.Spec{Family: scenario.Clustered, Name: "bh", N: n, MinPower: 100, MaxPower: 800, Seed: seed}.Generate()
	if err != nil {
		panic(err)
	}
	return core.Request{Platform: p, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: dgemmN}.MFlop()}
}

func TestStarUsesWholePoolWithStrongestRoot(t *testing.T) {
	req := heteroRequest(20, 200, 1)
	plan, err := (&baseline.Star{}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Hierarchy.ComputeStats()
	if s.Agents != 1 || s.Servers != 19 || s.Depth != 2 {
		t.Errorf("star stats %+v", s)
	}
	root := plan.Hierarchy.MustNode(plan.Hierarchy.Root())
	for _, n := range req.Platform.Nodes {
		if n.Power > root.Power {
			t.Errorf("node %s (%g) stronger than star root (%g)", n.Name, n.Power, root.Power)
		}
	}
}

// TestStarRanksByPowerThenName: the star deploys its nodes in decreasing
// power, equal powers in name order — whatever order the pool lists them in.
func TestStarRanksByPowerThenName(t *testing.T) {
	req := core.Request{
		Platform: &platform.Platform{Name: "s", Bandwidth: 1, Nodes: []platform.Node{
			{Name: "b", Power: 10}, {Name: "c", Power: 30}, {Name: "a", Power: 30}, {Name: "d", Power: 20},
		}},
		Costs: model.DIETDefaults(),
		Wapp:  workload.DGEMM{N: 200}.MFlop(),
	}
	plan, err := (&baseline.Star{}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "c", "d", "b"}
	for id, name := range want {
		if got := plan.Hierarchy.MustNode(id).Name; got != name {
			t.Errorf("node %d of the star is %s, want %s", id, got, name)
		}
	}
}

func TestBalancedTwoLevels(t *testing.T) {
	req := request(200, 400, 310)
	plan, err := (&baseline.Balanced{Degree: 14}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Hierarchy.ComputeStats()
	if s.Agents != 15 { // 1 root + 14 mid-level, as in the paper
		t.Errorf("%d agents, want 15", s.Agents)
	}
	if s.Servers != 185 {
		t.Errorf("%d servers, want 185", s.Servers)
	}
	if s.Depth != 3 {
		t.Errorf("depth %d, want 3", s.Depth)
	}
	if err := plan.Hierarchy.Validate(hierarchy.Final); err != nil {
		t.Errorf("balanced plan invalid: %v", err)
	}
}

func TestBalancedDegeneratesToStarOnTinyPools(t *testing.T) {
	req := request(3, 400, 200)
	plan, err := (&baseline.Balanced{Degree: 14}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := plan.Hierarchy.ComputeStats(); s.Agents != 1 {
		t.Errorf("tiny pool should degenerate to a star, got %+v", s)
	}
}

func TestBalancedDefaultDegree(t *testing.T) {
	req := request(100, 400, 310)
	plan, err := (&baseline.Balanced{}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Hierarchy.Validate(hierarchy.Final); err != nil {
		t.Errorf("default-degree balanced invalid: %v", err)
	}
}

func TestOptimalDAryBeatsOrMatchesStarAndBalanced(t *testing.T) {
	for _, dgemmN := range []int{10, 100, 310, 1000} {
		req := request(30, 400, dgemmN)
		dary, err := (&baseline.OptimalDAry{}).PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("dgemm %d: %v", dgemmN, err)
		}
		star, err := (&baseline.Star{}).PlanContext(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		bal, err := (&baseline.Balanced{}).PlanContext(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		if dary.Capped < star.Capped || dary.Capped < bal.Capped {
			t.Errorf("dgemm %d: dary %.2f < star %.2f or balanced %.2f",
				dgemmN, dary.Capped, star.Capped, bal.Capped)
		}
	}
}

func TestOptimalDAryAgentLimitedPicksOneServer(t *testing.T) {
	req := request(21, 400, 10)
	plan, err := (&baseline.OptimalDAry{}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := plan.Hierarchy.ComputeStats(); s.Servers != 1 {
		t.Errorf("agent-limited optimum should be 1 server, got %+v", s)
	}
}

func TestExhaustiveRespectsSizeLimit(t *testing.T) {
	req := request(baseline.MaxExhaustiveNodes+1, 400, 100)
	if _, err := (&baseline.Exhaustive{}).PlanContext(t.Context(), req); err == nil {
		t.Error("oversized pool accepted")
	}
}

func TestExhaustiveBeatsEveryPlannerOnSmallPools(t *testing.T) {
	req := heteroRequest(6, 150, 3)
	opt, err := (&baseline.Exhaustive{}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	others := []core.Planner{
		&baseline.Star{},
		&baseline.Balanced{},
		&baseline.OptimalDAry{},
		&baseline.Random{Seed: 1},
		core.NewHeuristic(),
	}
	for _, pl := range others {
		plan, err := pl.PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if plan.Capped > opt.Capped+1e-9 {
			t.Errorf("%s (%.3f) beats the exhaustive optimum (%.3f)", pl.Name(), plan.Capped, opt.Capped)
		}
	}
}

func TestRandomPlansAreValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		req := heteroRequest(25, 310, seed)
		plan, err := (&baseline.Random{Seed: seed}).PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := plan.Hierarchy.Validate(hierarchy.Final); err != nil {
			t.Errorf("seed %d: invalid plan: %v\n%s", seed, err, plan.Hierarchy)
		}
		if err := plan.Hierarchy.CheckAgainstPlatform(req.Platform); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// Property: every baseline planner produces a Final-valid deployment that
// stays within the platform pool, across random heterogeneous platforms.
func TestPropertyPlannersProduceValidPlans(t *testing.T) {
	planners := []core.Planner{
		&baseline.Star{},
		&baseline.Balanced{},
		&baseline.OptimalDAry{},
		&baseline.Random{Seed: 5},
	}
	f := func(seed int64, sizeSeed uint8, dgemmSeed uint8) bool {
		n := 3 + int(sizeSeed%40)
		dgemmN := 10 + int(dgemmSeed)*4
		req := heteroRequest(n, dgemmN, seed)
		for _, pl := range planners {
			plan, err := pl.PlanContext(t.Context(), req)
			if err != nil {
				return false
			}
			if plan.Hierarchy.Validate(hierarchy.Final) != nil {
				return false
			}
			if plan.Hierarchy.CheckAgainstPlatform(req.Platform) != nil {
				return false
			}
			if plan.Capped <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
