package adept_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/deploy"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/runtime"
	"adept/internal/scenario"
	"adept/internal/sim"
	"adept/internal/stats"
	"adept/internal/workload"
)

// TestEndToEndPlanXMLSimulate runs the full paper pipeline: plan a
// deployment on a heterogeneous platform, serialise it through the GoDIET
// XML hand-off, reload it, and verify the simulator measures the analytic
// model's prediction on the reloaded deployment.
func TestEndToEndPlanXMLSimulate(t *testing.T) {
	plat, err := scenario.Spec{Family: scenario.Clustered, Name: "e2e", N: 40, MinPower: 150, MaxPower: 700, Seed: 99}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{
		Platform: plat,
		Costs:    model.DIETDefaults(),
		Wapp:     workload.DGEMM{N: 310}.MFlop(),
	}
	plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}

	xml, err := plan.XML()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := hierarchy.ParseXML(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	if err := reloaded.Validate(hierarchy.Final); err != nil {
		t.Fatalf("reloaded deployment invalid: %v", err)
	}
	if err := reloaded.CheckAgainstPlatform(plat); err != nil {
		t.Fatalf("reloaded deployment inconsistent with platform: %v", err)
	}

	pred := reloaded.Evaluate(req.Costs, plat.Bandwidth, req.Wapp)
	if !stats.WithinTolerance(pred.Rho, plan.Eval.Rho, 1e-9) {
		// Powers pass through decimal text in the XML, so the last ULP may
		// differ; anything beyond that is a real round-trip bug.
		t.Errorf("XML round trip changed predicted ρ: %g vs %g", pred.Rho, plan.Eval.Rho)
	}
	res, err := sim.Plateau(reloaded, req.Costs, plat.Bandwidth, req.Wapp, 3, 10, 512, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("predicted %.2f req/s, simulated %.2f req/s", pred.Rho, res.Throughput)
	if !stats.WithinTolerance(res.Throughput, pred.Rho, 0.15) {
		t.Errorf("simulated %.2f req/s disagrees with model %.2f (>15%%)", res.Throughput, pred.Rho)
	}
}

// TestEndToEndPlanDeployRuntime deploys a planned hierarchy on the live
// goroutine middleware via the XML hand-off and verifies requests complete
// with per-server conservation.
func TestEndToEndPlanDeployRuntime(t *testing.T) {
	plat := platform.Homogeneous("e2e-rt", 8, 400, 100)
	req := core.Request{
		Platform: plat,
		Costs:    model.DIETDefaults(),
		Wapp:     workload.DGEMM{N: 150}.MFlop(),
	}
	plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	xml, err := plan.XML()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := deploy.LaunchXML(strings.NewReader(xml), deploy.Config{
		Metered: true,
		Options: runtime.Options{
			Costs:     req.Costs,
			Bandwidth: plat.Bandwidth,
			Wapp:      req.Wapp,
			TimeScale: 0.002,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	load, err := dep.System.RunClients(context.Background(), 4, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if load.Completed == 0 {
		t.Fatalf("no completions: %+v (errors: %v)", load, dep.System.Errors())
	}
	var sum int64
	for _, n := range dep.System.ServedCounts() {
		sum += n
	}
	if sum != load.Completed {
		t.Errorf("Σ Ni = %d but completed = %d", sum, load.Completed)
	}
	if dep.Meter.TotalMessages() == 0 {
		t.Error("no metered traffic in live deployment")
	}
}

// TestPlannersAgreeOnOrdering cross-checks planner quality on the paper's
// central scenario: on the heterogenised cluster the heuristic must beat
// both intuitive deployments under the analytic model, and the simulator
// must agree with that ordering.
func TestPlannersAgreeOnOrdering(t *testing.T) {
	base := platform.Homogeneous("order", 80, 400, 100)
	plat, err := platform.Heterogenize(base, platform.BackgroundLoad{
		Fraction: 0.6, LoadFactors: []float64{0.25, 0.5, 0.75}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop()}

	heur, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(h *hierarchy.Hierarchy) float64 {
		res, err := sim.Measure(h, req.Costs, plat.Bandwidth, req.Wapp,
			sim.Config{Clients: 150, Warmup: 6, Window: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	starPlan, err := (&baseline.Star{}).PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Eval.Rho <= starPlan.Eval.Rho {
		t.Errorf("model: heuristic %.1f should beat star %.1f", heur.Eval.Rho, starPlan.Eval.Rho)
	}
	mHeur, mStar := measure(heur.Hierarchy), measure(starPlan.Hierarchy)
	t.Logf("simulated: heuristic %.1f, star %.1f req/s", mHeur, mStar)
	if mHeur <= mStar {
		t.Errorf("simulator: heuristic %.1f should beat star %.1f", mHeur, mStar)
	}
}
