package portfolio_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/portfolio"
	"adept/internal/scenario"
	"adept/internal/workload"
)

func corpusRequest(t *testing.T, spec scenario.Spec, wapp float64) core.Request {
	t.Helper()
	plat, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: wapp}
}

// assertDominatesMembers runs every member the portfolio would have run on
// req alone and checks the portfolio's plan against each in the
// portfolio's own order: demand-capped throughput first, fewer nodes at
// equal throughput.
func assertDominatesMembers(t *testing.T, label string, req core.Request, pp *core.Plan) {
	t.Helper()
	members := []core.Planner{
		&core.SwapRefiner{Inner: core.NewHeuristic()},
		core.NewHeuristic(),
		&baseline.Star{},
		&baseline.OptimalDAry{},
	}
	if len(req.Platform.Nodes) <= 6 {
		members = append(members, &baseline.Exhaustive{})
	}
	for _, m := range members {
		mp, err := m.Plan(req)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, m.Name(), err)
		}
		if pp.Capped < mp.Capped || (pp.Capped == mp.Capped && pp.NodesUsed > mp.NodesUsed) {
			t.Errorf("%s: portfolio (capped %.6f, %d nodes) is beaten by %s alone (capped %.6f, %d nodes)",
				label, pp.Capped, pp.NodesUsed, m.Name(), mp.Capped, mp.NodesUsed)
		}
	}
}

// TestPortfolioDominatesMembersAcrossCorpus is the portfolio's defining
// property: on every scenario-corpus platform, unbounded and under a
// demand of 5 and of 50 req/s, no member run alone beats its plan on
// (demand-capped throughput, then fewer nodes).
func TestPortfolioDominatesMembersAcrossCorpus(t *testing.T) {
	wapps := []float64{workload.DGEMM{N: 100}.MFlop(), workload.DGEMM{N: 1000}.MFlop()}
	pf := portfolio.New()
	for _, spec := range scenario.Corpus(11, 4, 16, 48) {
		for _, wapp := range wapps {
			for _, demand := range []workload.Demand{0, 5, 50} {
				req := corpusRequest(t, spec, wapp)
				req.Demand = demand
				label := fmt.Sprintf("%s n=%d wapp=%.0f demand=%g", spec.Family, spec.N, wapp, float64(demand))
				pp, stats, err := pf.PlanWithStats(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: portfolio: %v", label, err)
				}
				assertDominatesMembers(t, label, req, pp)
				if !strings.HasPrefix(pp.Planner, "portfolio:") {
					t.Errorf("%s: winner plan not branded: %q", label, pp.Planner)
				}
				winners := 0
				for _, st := range stats {
					if st.Winner {
						winners++
					}
				}
				if winners != 1 {
					t.Errorf("%s: %d winners, want 1", label, winners)
				}
			}
		}
	}
}

// TestPortfolioSkipsExhaustiveOnLargePools checks the pool-size gate.
func TestPortfolioSkipsExhaustiveOnLargePools(t *testing.T) {
	req := corpusRequest(t, scenario.Spec{Family: scenario.Bimodal, N: 40, Seed: 3}, workload.DGEMM{N: 310}.MFlop())
	_, stats, err := portfolio.New().PlanWithStats(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range stats {
		if st.Variant == "exhaustive" {
			found = true
			if st.Skipped == "" {
				t.Error("exhaustive not skipped on a 40-node pool")
			}
		}
	}
	if !found {
		t.Error("exhaustive variant missing from stats")
	}
}

// TestPortfolioUsesExhaustiveOnTinyPools checks the ground-truth variant
// actually runs (and, being optimal, wins ties at worst) on small pools.
func TestPortfolioUsesExhaustiveOnTinyPools(t *testing.T) {
	req := corpusRequest(t, scenario.Spec{Family: scenario.PowerLaw, N: 5, Seed: 9}, workload.DGEMM{N: 100}.MFlop())
	pp, stats, err := portfolio.New().PlanWithStats(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := (&baseline.Exhaustive{}).Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Capped < ep.Capped {
		t.Errorf("portfolio %.6f below exhaustive optimum %.6f", pp.Capped, ep.Capped)
	}
	for _, st := range stats {
		if st.Variant == "exhaustive" && (st.Skipped != "" || st.Err != "") {
			t.Errorf("exhaustive did not run on a 5-node pool: %+v", st)
		}
	}
}

// TestPortfolioMatchesExhaustiveOptimum pins the portfolio to the
// exhaustive ground truth on every enumerable small platform: wherever the
// swap-refined heuristic's optimality gap opens (see
// internal/baseline's TestHeuristicOptimalityGap), the exhaustive variant
// closes it.
func TestPortfolioMatchesExhaustiveOptimum(t *testing.T) {
	pf := portfolio.New()
	exhaustive := &baseline.Exhaustive{}
	wapps := []float64{workload.DGEMM{N: 10}.MFlop(), workload.DGEMM{N: 100}.MFlop()}
	for n := 2; n <= 6; n++ {
		for _, fam := range scenario.Families() {
			spec := scenario.Spec{Family: fam, N: n, Seed: int64(n) * 31}
			for _, wapp := range wapps {
				req := corpusRequest(t, spec, wapp)
				opt, err := exhaustive.Plan(req)
				if err != nil {
					t.Fatal(err)
				}
				pp, err := pf.Plan(req)
				if err != nil {
					t.Fatal(err)
				}
				if pp.Capped < opt.Capped*(1-1e-9) {
					t.Errorf("%s n=%d wapp=%.0f: portfolio %.6f below exhaustive optimum %.6f", fam, n, wapp, pp.Capped, opt.Capped)
				}
			}
		}
	}
}

// TestPortfolioHonoursCancellation checks a dead context yields an error,
// not a plan.
func TestPortfolioHonoursCancellation(t *testing.T) {
	req := corpusRequest(t, scenario.Spec{Family: scenario.Clustered, N: 60, Seed: 2}, workload.DGEMM{N: 310}.MFlop())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := portfolio.New().PlanWithStats(ctx, req); err == nil {
		t.Fatal("cancelled context produced a plan")
	}
}

// pollCtx is a context that counts how often it is polled and reports
// cancellation from its fireAt-th poll on (0 = never). Every planner polls
// through ctx.Err, and the fold runs on one goroutine, so the count is
// exact and the same on every run.
type pollCtx struct {
	context.Context
	polls, fireAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.fireAt > 0 && c.polls >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// TestPortfolioIsAllOrNothing cancels the fold at each of its poll points
// in turn — before the first variant, inside each one, between them, after
// the last — and demands the context's error every time: the plan of the
// variants that happened to finish is not the request's answer, and a
// caller caching by content address must never see it.
func TestPortfolioIsAllOrNothing(t *testing.T) {
	req := corpusRequest(t, scenario.Spec{Family: scenario.Clustered, N: 30, Seed: 2}, workload.DGEMM{N: 310}.MFlop())
	pf := portfolio.New()
	whole := &pollCtx{Context: context.Background()}
	if _, err := pf.PlanContext(whole, req); err != nil {
		t.Fatal(err)
	}
	first := &pollCtx{Context: context.Background()}
	if _, err := (&core.SwapRefiner{Inner: core.NewHeuristic()}).PlanContext(first, req); err != nil {
		t.Fatal(err)
	}
	if first.polls+1 >= whole.polls {
		t.Fatalf("first variant polls %d times, the fold %d: no poll point after the first variant", first.polls, whole.polls)
	}
	for at := 1; at <= whole.polls; at++ {
		plan, stats, err := pf.PlanWithStats(&pollCtx{Context: context.Background(), fireAt: at}, req)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: err = %v, want context.Canceled", at, whole.polls, err)
		}
		if plan != nil || stats != nil {
			t.Fatalf("cancelled at poll %d of %d: got a partial answer (%v, %v)", at, whole.polls, plan, stats)
		}
	}
}

// TestPortfolioPlansAlgorithm1Once counts context polls: the fold's are its
// own (one after each row that ran) plus those of
// heuristic+swap, star and homogeneous run alone — the heuristic row adds
// none, because it reports the plan the heuristic+swap row refines.
func TestPortfolioPlansAlgorithm1Once(t *testing.T) {
	req := corpusRequest(t, scenario.Spec{Family: scenario.Clustered, N: 30, Seed: 2}, workload.DGEMM{N: 310}.MFlop())
	polls := func(pl core.Planner) int {
		t.Helper()
		ctx := &pollCtx{Context: context.Background()}
		if _, err := pl.PlanContext(ctx, req); err != nil {
			t.Fatal(err)
		}
		return ctx.polls
	}
	algorithm1 := polls(core.NewHeuristic())
	if algorithm1 == 0 {
		t.Fatal("Algorithm 1 never polls its context: the count below proves nothing")
	}
	const ran = 4 // exhaustive is skipped on 30 nodes
	want := ran + polls(&core.SwapRefiner{Inner: core.NewHeuristic()}) + polls(&baseline.Star{}) + polls(&baseline.OptimalDAry{})
	if got := polls(portfolio.New()); got != want {
		t.Errorf("portfolio polled its context %d times, want %d (a second run of Algorithm 1 would add %d)", got, want, algorithm1)
	}
}

// TestPortfolioDemandCutoff: with a trivially met demand the portfolio
// returns a plan that meets it exactly (capped at the demand) — and the
// winner must be a minimal deployment, not the whole-pool star: at equal
// capped throughput the fold keeps the plan using the fewest nodes.
func TestPortfolioDemandCutoff(t *testing.T) {
	req := corpusRequest(t, scenario.Spec{Family: scenario.TracePerturbed, N: 30, Seed: 4}, workload.DGEMM{N: 100}.MFlop())
	req.Demand = workload.Demand(1) // 1 req/s: any member meets it
	pp, _, err := portfolio.New().PlanWithStats(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Capped != 1 {
		t.Errorf("capped %.3f, want demand 1", pp.Capped)
	}
	if pp.NodesUsed > 3 {
		t.Errorf("demand-met plan uses %d of 30 nodes; the fewer-nodes tie-break should have kept it minimal", pp.NodesUsed)
	}
}

// TestPortfolioIsACorePlanner locks the interface contract.
func TestPortfolioIsACorePlanner(t *testing.T) {
	var pl core.Planner = portfolio.New()
	if pl.Name() != "portfolio" {
		t.Errorf("name %q", pl.Name())
	}
	req := corpusRequest(t, scenario.Spec{Family: scenario.Star, N: 10, Seed: 1}, workload.DGEMM{N: 310}.MFlop())
	plan, err := pl.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Hierarchy.Validate(0) != nil {
		t.Error("portfolio plan invalid")
	}
}

// TestPortfolioDeterministicThroughClassPath runs the portfolio on a pool
// large and quantised enough that the heuristic variants plan through the
// class-collapsed path, and asserts one answer: same winner, bit-identical
// XML, across repeated calls and across GOMAXPROCS 1 and 8.
func TestPortfolioDeterministicThroughClassPath(t *testing.T) {
	spec := scenario.Spec{Family: scenario.ClusterGrid, N: 4500, Seed: 29, PowerLevels: 8}
	req := corpusRequest(t, spec, workload.DGEMM{N: 1000}.MFlop())
	pf := portfolio.New()

	answer := func() (string, string) {
		t.Helper()
		plan, _, err := pf.PlanWithStats(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		xml, err := plan.XML()
		if err != nil {
			t.Fatal(err)
		}
		return plan.Planner, xml
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	refWinner, refXML := answer()
	if !strings.HasPrefix(refWinner, "portfolio:") {
		t.Fatalf("winner = %q, want portfolio:<variant>", refWinner)
	}
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for round := 0; round < 3; round++ {
			winner, xml := answer()
			if winner != refWinner {
				t.Fatalf("GOMAXPROCS=%d round %d: winner %q != %q", procs, round, winner, refWinner)
			}
			if xml != refXML {
				t.Fatalf("GOMAXPROCS=%d round %d: XML differs from reference", procs, round)
			}
		}
	}
}

// TestPortfolioDeterministicUnderDemand is the regression test for the
// race the portfolio used to be: under a bounded demand the first frugal
// variant to meet it cancelled the others, so which plan won — and was
// then cached under the request's content address — depended on who
// finished first (cluster-grid n=400 seed=7 at demand 50 answered with 2
// nodes or with 60). A fold has one answer per request, at any GOMAXPROCS.
func TestPortfolioDeterministicUnderDemand(t *testing.T) {
	calls := 300
	if testing.Short() {
		calls = 30
	}
	specs := []scenario.Spec{
		{Family: scenario.ClusterGrid, N: 400, Seed: 7},
		{Family: scenario.ClusterGrid, N: 1000, Seed: 7},
		{Family: scenario.TracePerturbed, N: 400, Seed: 7},
	}
	pf := portfolio.New()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spec := range specs {
		for _, demand := range []workload.Demand{50, 300} {
			req := corpusRequest(t, spec, workload.DGEMM{N: 310}.MFlop())
			req.Demand = demand
			type answer struct{ planner, xml string }
			seen := map[answer]int{}
			nodes := map[int]int{}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for i := 0; i < calls; i++ {
					plan, err := pf.PlanContext(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					xml, err := plan.XML()
					if err != nil {
						t.Fatal(err)
					}
					seen[answer{plan.Planner, xml}]++
					nodes[plan.NodesUsed]++
				}
			}
			label := fmt.Sprintf("%s n=%d demand=%g", spec.Family, spec.N, float64(demand))
			if len(seen) != 1 {
				counts := map[string]int{}
				for a, c := range seen {
					counts[a.planner] += c
				}
				t.Errorf("%s: %d distinct (planner, XML) answers, want 1: winners %v, nodes used %v", label, len(seen), counts, nodes)
			}
			if spec.Family == scenario.ClusterGrid && demand == 50 && (len(nodes) != 1 || nodes[2] == 0) {
				t.Errorf("%s: nodes used %v, want 2 every time", label, nodes)
			}
		}
	}
}
