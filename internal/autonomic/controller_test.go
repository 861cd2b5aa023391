package autonomic_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"adept/internal/autonomic"
	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
)

// scriptedTarget is a managed system whose behaviour a test fixes window by
// window: Observe returns the next scripted window (the last one repeats),
// every patch is accepted whole, and a redeploy is accepted when redeploy
// is set.
type scriptedTarget struct {
	windows   []autonomic.Observation
	next      int
	onObserve func()
	redeploy  bool
	rebuilt   []*hierarchy.Hierarchy
}

func (s *scriptedTarget) Observe(context.Context) (autonomic.Observation, error) {
	if s.onObserve != nil {
		s.onObserve()
	}
	w := s.windows[min(s.next, len(s.windows)-1)]
	s.next++
	return w, nil
}

func (s *scriptedTarget) Apply(_ context.Context, p hierarchy.Patch) (int, error) {
	return p.Len(), nil
}

func (s *scriptedTarget) Redeploy(_ context.Context, h *hierarchy.Hierarchy) error {
	if !s.redeploy {
		return errors.New("scripted target cannot redeploy")
	}
	s.rebuilt = append(s.rebuilt, h)
	return nil
}

func (s *scriptedTarget) CanRedeploy() bool { return s.redeploy }

// scripted builds one 10-second window in which every listed server served
// 100 requests at its listed service time, except those listed at 0, which
// served none.
func scripted(secs map[string]float64) autonomic.Observation {
	o := autonomic.Observation{Window: 10, Served: map[string]int64{}, ServiceSeconds: map[string]float64{}}
	for name, sec := range secs {
		o.Served[name] = 0
		if sec > 0 {
			o.Served[name] = 100
			o.ServiceSeconds[name] = sec
			o.Completed += 100
		}
	}
	o.Throughput = float64(o.Completed) / o.Window
	return o
}

// scriptedStar deploys root at rootPower over servers at serverPower, and
// returns the tree with the pool it was planned from.
func scriptedStar(t *testing.T, root string, rootPower, serverPower float64, servers ...string) (*hierarchy.Hierarchy, *platform.Platform) {
	t.Helper()
	h := hierarchy.New("scripted")
	id, err := h.AddRoot(root, rootPower)
	if err != nil {
		t.Fatal(err)
	}
	pool := &platform.Platform{Name: "scripted", Bandwidth: testBandwidth, Nodes: []platform.Node{{Name: root, Power: rootPower}}}
	for _, name := range servers {
		if _, err := h.AddServer(id, name, serverPower); err != nil {
			t.Fatal(err)
		}
		pool.Nodes = append(pool.Nodes, platform.Node{Name: name, Power: serverPower})
	}
	return h, pool
}

// TestRedeployForgetsEvictedServers: a crash whose replan swaps the root is
// carried out by a full redeploy, and the evicted server's estimator leaves
// with it, as it does when a patch evicts it.
func TestRedeployForgetsEvictedServers(t *testing.T) {
	h, pool := scriptedStar(t, "weak", 100, 400, "s1", "s2", "s3")
	sec := testWapp / 400
	target := &scriptedTarget{redeploy: true, windows: []autonomic.Observation{
		scripted(map[string]float64{"s1": sec, "s2": sec, "s3": sec}),
		scripted(map[string]float64{"s1": 0, "s2": sec, "s3": sec}),
	}}
	ctrl, err := autonomic.New(autonomic.Config{
		Planner:      core.NewHeuristic(),
		Platform:     pool,
		Costs:        model.DIETDefaults(),
		Wapp:         testWapp,
		SagTolerance: -1,
		CrashWindows: 1,
	}, target, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := ctrl.Step(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	status := ctrl.Status()
	if status.FullRedeploys != 1 || len(target.rebuilt) != 1 {
		t.Fatalf("the eviction of s1 did not swap the root by a redeploy: %+v", status)
	}
	if _, ok := status.EffectivePowers["s1"]; ok {
		t.Errorf("evicted s1 still has an estimator after the redeploy: %v", status.EffectivePowers)
	}
	if in := ctrl.Incidents(); len(in) != 1 || !in[0].FullRedeploy || in[0].PatchAt.IsZero() {
		t.Errorf("the redeploy is not recorded on its incident: %+v", in)
	}
}

// TestControllerStampsComeFromItsClock drives drift → detect → patch →
// recover under a clock that advances ten seconds a window, and pins every
// stamp: adaptations in the clock's own zone, incident milestones in UTC.
func TestControllerStampsComeFromItsClock(t *testing.T) {
	h, pool := scriptedStar(t, "a0", 400, 200, "s1", "s2")
	zone := time.FixedZone("UTC+1", 3600)
	t0 := time.Date(2026, 1, 2, 3, 4, 0, 0, zone)
	now := t0
	healthy := scripted(map[string]float64{"s1": testWapp / 200, "s2": testWapp / 200})
	drifted := scripted(map[string]float64{"s1": testWapp / 100, "s2": testWapp / 200})
	target := &scriptedTarget{
		windows:   []autonomic.Observation{healthy, healthy, drifted},
		onObserve: func() { now = now.Add(10 * time.Second) },
	}
	ctrl, err := autonomic.New(autonomic.Config{
		Platform:  pool,
		Costs:     model.DIETDefaults(),
		Wapp:      testWapp,
		MaxCycles: 8,
	}, target, h)
	if err != nil {
		t.Fatal(err)
	}
	autonomic.SetClock(ctrl, func() time.Time { return now })
	if err := ctrl.Run(t.Context()); err != nil {
		t.Fatal(err)
	}

	// Drift shows from window 3 and passes hysteresis at window 4; the
	// patch lands in the same cycle, two cooldown windows follow, and
	// window 7 is the first clean one.
	at := func(window int) time.Time { return t0.Add(time.Duration(window) * 10 * time.Second) }
	sameUTC := func(field string, got time.Time, window int) {
		t.Helper()
		if !got.Equal(at(window)) || got.Location() != time.UTC {
			t.Errorf("%s = %v, want %v", field, got, at(window).UTC())
		}
	}
	adaptations := ctrl.Status().Adaptations
	if len(adaptations) != 1 {
		t.Fatalf("want one adaptation, got %+v", adaptations)
	}
	if ev := adaptations[0]; ev.Cycle != 4 || !ev.At.Equal(at(4)) || ev.At.Location() != zone {
		t.Errorf("adaptation at cycle %d, %v; want cycle 4, %v", ev.Cycle, ev.At, at(4))
	}
	incidents := ctrl.Incidents()
	if len(incidents) != 1 {
		t.Fatalf("want one incident, got %+v", incidents)
	}
	in := incidents[0]
	if in.DetectCycle != 4 || in.RecoverCycle != 7 || !in.Resolved {
		t.Fatalf("incident cycles %d → %d (resolved %v), want 4 → 7", in.DetectCycle, in.RecoverCycle, in.Resolved)
	}
	sameUTC("DetectedAt", in.DetectedAt, 4)
	sameUTC("ReplanAt", in.ReplanAt, 4)
	sameUTC("PatchAt", in.PatchAt, 4)
	sameUTC("RecoveredAt", in.RecoveredAt, 7)
	if in.MTTRSeconds != 30 || in.MTTRVirtualSeconds != 30 {
		t.Errorf("MTTR %g s wall, %g s virtual; want 30 and 30", in.MTTRSeconds, in.MTTRVirtualSeconds)
	}
}
