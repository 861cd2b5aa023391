package autonomic_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"adept/internal/autonomic"
	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/runtime"
	"adept/internal/sim"
)

const (
	testBandwidth = 100.0
	testWapp      = 10.0
)

func testPlatform(s1Power float64) *platform.Platform {
	return &platform.Platform{
		Name:      "autonomic-test",
		Bandwidth: testBandwidth,
		Nodes: []platform.Node{
			{Name: "n0", Power: 400},
			{Name: "s1", Power: s1Power},
			{Name: "s2", Power: 150},
			{Name: "s3", Power: 150},
			{Name: "s4", Power: 100},
		},
	}
}

func planFor(t *testing.T, p *platform.Platform) *core.Plan {
	t.Helper()
	plan, err := core.NewHeuristic().PlanContext(t.Context(), core.Request{
		Platform: p,
		Costs:    model.DIETDefaults(),
		Wapp:     testWapp,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDriftRecoveryEndToEnd is the acceptance scenario: a 2x background
// load lands on the most powerful serving node of a running (simulated)
// deployment; the MAPE-K loop must learn the drift, patch the live
// hierarchy without a full redeploy and with fewer ops than a redeploy
// would cost, and converge to at least 90% of the throughput a fresh
// replan against the drifted platform achieves.
func TestDriftRecoveryEndToEnd(t *testing.T) {
	nominal := testPlatform(200)
	plan := planFor(t, nominal)
	deployed := plan.Hierarchy
	t.Logf("initial plan:\n%s", deployed)

	// Find the most powerful server of the deployment — the drift victim.
	victim, victimPower := "", 0.0
	for _, id := range deployed.Servers() {
		if n := deployed.MustNode(id); n.Power > victimPower {
			victim, victimPower = n.Name, n.Power
		}
	}
	if victim == "" {
		t.Fatal("no servers in the initial plan")
	}

	const (
		clients  = 12
		window   = 10.0
		driftAt  = 40.0
		factor   = 2.0
		maxCycle = 40
	)
	managed, err := sim.NewManaged(deployed, model.DIETDefaults(), testBandwidth, testWapp, clients,
		[]sim.LoadPhase{{At: driftAt, Factors: map[string]float64{victim: factor}}})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := autonomic.New(autonomic.Config{
		Platform:     nominal,
		Costs:        model.DIETDefaults(),
		Wapp:         testWapp,
		CrashWindows: -1, // a starved server is not a crash in this scenario
		MaxCycles:    maxCycle,
	}, &autonomic.SimTarget{Managed: managed, Window: window}, deployed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Run(context.Background()); err != nil {
		t.Fatalf("control loop failed: %v (status: %+v)", err, ctrl.Status())
	}
	status := ctrl.Status()

	// The loop adapted, by patching, not redeploying.
	if len(status.Adaptations) == 0 {
		t.Fatalf("no adaptation happened: %+v", status)
	}
	if status.FullRedeploys != 0 {
		t.Fatalf("loop fell back to %d full redeploys", status.FullRedeploys)
	}

	// Reference: replan from scratch against the true drifted platform and
	// measure it in an identical, freshly saturated simulation.
	drifted := testPlatform(victimPower / factor)
	freshPlan := planFor(t, drifted)
	ref, err := sim.Measure(freshPlan.Hierarchy, model.DIETDefaults(), testBandwidth, testWapp,
		sim.Config{Clients: clients, Warmup: 20, Window: 60})
	if err != nil {
		t.Fatal(err)
	}

	// Patch ops strictly cheaper than a full redeploy.
	if status.PatchOpsApplied >= freshPlan.Hierarchy.Len() {
		t.Errorf("patching cost %d ops, a redeploy costs %d elements", status.PatchOpsApplied, freshPlan.Hierarchy.Len())
	}

	// Converged to >= 90% of the freshly replanned optimum.
	if status.Throughput < 0.9*ref.Throughput {
		t.Errorf("recovered throughput %.2f req/s < 90%% of replanned optimum %.2f req/s\nstatus: %+v",
			status.Throughput, ref.Throughput, status)
	}
	// The learned effective power converged near the truth.
	eff, ok := status.EffectivePowers[victim]
	if !ok {
		t.Fatalf("no effective power learned for %s: %v", victim, status.EffectivePowers)
	}
	if truth := victimPower / factor; eff < 0.75*truth || eff > 1.35*truth {
		t.Errorf("learned effective power %.0f far from truth %.0f", eff, truth)
	}
	t.Logf("recovered %.2f req/s vs replanned %.2f req/s with %d patch ops (%d adaptations); effective %s = %.0f MFlop/s",
		status.Throughput, ref.Throughput, status.PatchOpsApplied, len(status.Adaptations), victim, eff)
	for _, ev := range status.Adaptations {
		t.Logf("cycle %d: %v -> %v", ev.Cycle, ev.Reasons, ev.Ops)
	}

	// The drift maps to incident records with a full measured lifecycle:
	// detect -> replan -> patch -> recovered, MTTR on both clocks.
	incidents := ctrl.Incidents()
	if len(incidents) == 0 {
		t.Fatalf("adaptations happened but no incident was recorded")
	}
	resolved := 0
	for _, in := range incidents {
		t.Logf("incident %d: %v detect@c%d recovered@c%d mttr=%.2fs/%.1fvs",
			in.ID, in.Reasons, in.DetectCycle, in.RecoverCycle, in.MTTRSeconds, in.MTTRVirtualSeconds)
		if !in.Resolved {
			continue
		}
		resolved++
		if in.DetectedAt.IsZero() || in.ReplanAt.IsZero() || in.PatchAt.IsZero() || in.RecoveredAt.IsZero() {
			t.Errorf("incident %d missing lifecycle timestamps: %+v", in.ID, in)
		}
		if in.ReplanAt.Before(in.DetectedAt) || in.PatchAt.Before(in.ReplanAt) || in.RecoveredAt.Before(in.PatchAt) {
			t.Errorf("incident %d timestamps out of order: %+v", in.ID, in)
		}
		if in.MTTRVirtualSeconds <= 0 || in.MTTRSeconds < 0 {
			t.Errorf("incident %d has non-positive MTTR: %+v", in.ID, in)
		}
		if in.PatchOps == 0 && !in.FullRedeploy && !in.NoChange {
			t.Errorf("incident %d resolved without any recorded action: %+v", in.ID, in)
		}
	}
	if resolved == 0 {
		t.Errorf("no incident resolved; incidents: %+v", incidents)
	}
	sum := autonomic.SummarizeMTTR(incidents)
	if sum.Resolved != resolved || sum.MaxVirt <= 0 {
		t.Errorf("MTTR summary inconsistent: %+v", sum)
	}
}

// TestStableSystemNeverAdapts: without drift the loop must sit still.
func TestStableSystemNeverAdapts(t *testing.T) {
	nominal := testPlatform(200)
	plan := planFor(t, nominal)
	managed, err := sim.NewManaged(plan.Hierarchy, model.DIETDefaults(), testBandwidth, testWapp, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := autonomic.New(autonomic.Config{
		Platform:  nominal,
		Costs:     model.DIETDefaults(),
		Wapp:      testWapp,
		MaxCycles: 15,
	}, &autonomic.SimTarget{Managed: managed, Window: 10}, plan.Hierarchy)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	status := ctrl.Status()
	if len(status.Adaptations) != 0 || status.PatchOpsApplied != 0 {
		t.Fatalf("stable system got adapted: %+v", status.Adaptations)
	}
	if status.Cycles != 15 {
		t.Errorf("ran %d cycles, want 15", status.Cycles)
	}
}

// TestCrashRecoveryLive exercises the loop against the real goroutine
// middleware: a server crash (frozen ServedCounts, stalled scheduling
// phases) must be detected and evicted by a live patch, recovering
// throughput without a redeploy.
func TestCrashRecoveryLive(t *testing.T) {
	h := hierarchy.New("live-crash")
	root, _ := h.AddRoot("agent-0", 400)
	for _, name := range []string{"sed-a", "sed-b"} {
		if _, err := h.AddServer(root, name, 400); err != nil {
			t.Fatal(err)
		}
	}
	opts := runtime.Options{
		Costs:        model.DIETDefaults(),
		Bandwidth:    testBandwidth,
		Wapp:         16,
		TimeScale:    0.002,
		ReplyTimeout: 100 * time.Millisecond,
	}
	sys, err := runtime.Deploy(h, runtime.NewChanTransport(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sys.Stop() }()

	target := autonomic.NewLiveTarget(sys, opts, 4, 300*time.Millisecond,
		func() runtime.Transport { return runtime.NewChanTransport() })
	pool := &platform.Platform{
		Name:      "live-crash",
		Bandwidth: testBandwidth,
		Nodes: []platform.Node{
			{Name: "agent-0", Power: 400},
			{Name: "sed-a", Power: 400},
			{Name: "sed-b", Power: 400},
		},
	}
	ctrl, err := autonomic.New(autonomic.Config{
		Platform:     pool,
		Costs:        model.DIETDefaults(),
		Wapp:         16,
		CrashWindows: 2,
		Hysteresis:   2,
		Cooldown:     1,
	}, target, h)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Two healthy windows to establish a baseline.
	for i := 0; i < 2; i++ {
		if err := ctrl.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	healthy := ctrl.Status().Throughput
	if err := sys.CrashServer("sed-a"); err != nil {
		t.Fatal(err)
	}
	// Give the loop up to 8 windows to detect, evict, and recover.
	for i := 0; i < 8; i++ {
		if err := ctrl.Step(ctx); err != nil {
			t.Fatalf("cycle after crash: %v", err)
		}
		if len(ctrl.Status().Adaptations) > 0 && ctrl.Status().Throughput > healthy/2 {
			break
		}
	}
	status := ctrl.Status()
	if len(status.Adaptations) == 0 {
		t.Fatalf("crash never detected: %+v", status)
	}
	found := false
	for _, ev := range status.Adaptations {
		for _, op := range ev.Ops {
			if strings.Contains(op, "remove sed-a") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no eviction of sed-a in adaptations: %+v", status.Adaptations)
	}
	snap := target.System().Snapshot()
	for _, n := range snap.Nodes() {
		if n.Name == "sed-a" {
			t.Fatalf("crashed server still deployed:\n%s", snap)
		}
	}
	if status.Throughput <= healthy/2 {
		t.Errorf("throughput did not recover: healthy %.1f, final %.1f req/s", healthy, status.Throughput)
	}
	t.Logf("healthy %.1f req/s, final %.1f req/s, adaptations: %+v", healthy, status.Throughput, status.Adaptations)

	// The eviction must be permanent knowledge: drive a second adaptation
	// (drift on the survivor) and check the planner never re-adds the
	// crashed node at its nominal power.
	if err := target.System().SetBackgroundLoad("sed-b", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := ctrl.Step(ctx); err != nil {
			t.Fatalf("cycle after drift: %v", err)
		}
		if len(ctrl.Status().Adaptations) > len(status.Adaptations) {
			break
		}
	}
	after := ctrl.Status()
	if len(after.Adaptations) == len(status.Adaptations) {
		t.Fatalf("drift on survivor never adapted: %+v", after)
	}
	snap = target.System().Snapshot()
	for _, n := range snap.Nodes() {
		if n.Name == "sed-a" {
			t.Fatalf("crashed server resurrected by a later replan:\n%s", snap)
		}
	}
}

// TestAnalyzerHysteresis: one bad window must not trigger; consecutive
// windows must.
func TestAnalyzerHysteresis(t *testing.T) {
	h := hierarchy.New("hyst")
	root, _ := h.AddRoot("a0", 400)
	if _, err := h.AddServer(root, "s1", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddServer(root, "s2", 100); err != nil {
		t.Fatal(err)
	}
	mon := autonomic.NewMonitor(1, testWapp) // alpha 1: latest window wins
	ana := autonomic.NewAnalyzer(0.25, 0.25, 2, 2)

	healthy := autonomic.Observation{
		Window: 10, Throughput: 20, Completed: 200,
		Served:         map[string]int64{"s1": 100, "s2": 100},
		ServiceSeconds: map[string]float64{"s1": 0.1, "s2": 0.1},
	}
	drifted := autonomic.Observation{
		Window: 10, Throughput: 15, Completed: 150,
		Served:         map[string]int64{"s1": 50, "s2": 100},
		ServiceSeconds: map[string]float64{"s1": 0.2, "s2": 0.1},
	}
	mon.Update(healthy)
	if v := ana.Analyze(h, healthy, mon); v.Act() {
		t.Fatalf("healthy window triggered: %+v", v)
	}
	mon.Update(drifted)
	if v := ana.Analyze(h, drifted, mon); v.Act() {
		t.Fatalf("single drifted window triggered (no hysteresis): %+v", v)
	}
	mon.Update(drifted)
	v := ana.Analyze(h, drifted, mon)
	if len(v.Drifted) == 0 {
		t.Fatalf("two drifted windows did not trigger: %+v", v)
	}
	if eff := v.Drifted["s1"]; eff < 45 || eff > 55 {
		t.Errorf("effective power %v, want ~50", v.Drifted)
	}
}

// TestAnalyzerCrashDetection: frozen counters flag after CrashWindows.
func TestAnalyzerCrashDetection(t *testing.T) {
	h := hierarchy.New("crash")
	root, _ := h.AddRoot("a0", 400)
	if _, err := h.AddServer(root, "s1", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddServer(root, "s2", 100); err != nil {
		t.Fatal(err)
	}
	mon := autonomic.NewMonitor(0.5, testWapp)
	ana := autonomic.NewAnalyzer(0.25, 0, 2, 2)
	obs := autonomic.Observation{
		Window: 10, Throughput: 10, Completed: 100,
		Served:         map[string]int64{"s1": 0, "s2": 100},
		ServiceSeconds: map[string]float64{"s2": 0.1},
	}
	if v := ana.Analyze(h, obs, mon); len(v.Crashed) != 0 {
		t.Fatalf("one frozen window flagged a crash: %+v", v)
	}
	v := ana.Analyze(h, obs, mon)
	if len(v.Crashed) != 1 || v.Crashed[0] != "s1" {
		t.Fatalf("crash not flagged after 2 windows: %+v", v)
	}
	// An idle platform (nothing completed at all) must not flag crashes.
	ana2 := autonomic.NewAnalyzer(0.25, 0, 2, 2)
	idle := autonomic.Observation{Window: 10, Served: map[string]int64{"s1": 0, "s2": 0}}
	ana2.Analyze(h, idle, mon)
	if v := ana2.Analyze(h, idle, mon); len(v.Crashed) != 0 {
		t.Fatalf("idle platform flagged crashes: %+v", v)
	}
}
