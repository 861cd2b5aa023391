package sim

import (
	"testing"

	"adept/internal/hierarchy"
	"adept/internal/model"
)

func managedStar(t *testing.T, powers map[string]float64) *hierarchy.Hierarchy {
	t.Helper()
	h := hierarchy.New("managed")
	root, err := h.AddRoot("root", 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s1", "s2", "s3"} {
		p := 100.0
		if powers != nil {
			if v, ok := powers[name]; ok {
				p = v
			}
		}
		if _, err := h.AddServer(root, name, p); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestManagedBackgroundLoadScenario(t *testing.T) {
	h := managedStar(t, nil)
	scenario := []LoadPhase{{At: 10, Factors: map[string]float64{"s1": 2}}}
	m, err := NewManaged(h, model.DIETDefaults(), 100, 10, 4, scenario)
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.Observe(10)
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Observe(10)
	if err != nil {
		t.Fatal(err)
	}
	b, okB := before.ServiceSeconds["s1"]
	a, okA := after.ServiceSeconds["s1"]
	if !okB || !okA {
		t.Fatalf("missing s1 observations: before %v after %v", before.ServiceSeconds, after.ServiceSeconds)
	}
	if a < 1.8*b {
		t.Errorf("2x background load not visible in observed service time: %.4fs -> %.4fs", b, a)
	}
	if after.Throughput >= before.Throughput {
		t.Errorf("throughput did not sag under drift: %.2f -> %.2f req/s", before.Throughput, after.Throughput)
	}
	// Unloaded servers keep their service time.
	if s2b, s2a := before.ServiceSeconds["s2"], after.ServiceSeconds["s2"]; s2a > 1.1*s2b {
		t.Errorf("unloaded server slowed too: %.4fs -> %.4fs", s2b, s2a)
	}
}

func TestManagedDemandShiftPhase(t *testing.T) {
	h := managedStar(t, nil)
	scenario := []LoadPhase{{At: 10, AddClients: 6}}
	m, err := NewManaged(h, model.DIETDefaults(), 100, 10, 1, scenario)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := m.Observe(10)
	after, _ := m.Observe(10)
	if after.Completed <= before.Completed {
		t.Errorf("demand shift invisible: %d -> %d completions", before.Completed, after.Completed)
	}
}

func TestManagedLivePatchKeepsServing(t *testing.T) {
	h := managedStar(t, nil)
	m, err := NewManaged(h, model.DIETDefaults(), 100, 10, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(5); err != nil {
		t.Fatal(err)
	}

	// Reshape mid-run: promote s1, hang s2/s3 under it, add s4.
	target := hierarchy.New("managed")
	root, _ := target.AddRoot("root", 500)
	a1, _ := target.AddAgent(root, "s1", 100)
	if _, err := target.AddServer(a1, "s2", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := target.AddServer(a1, "s3", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := target.AddServer(root, "s4", 150); err != nil {
		t.Fatal(err)
	}
	patch, err := hierarchy.Diff(h, target)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.ApplyPatch(patch); err != nil {
		t.Fatalf("applied %d/%d: %v", n, patch.Len(), err)
	}
	ws, err := m.Observe(10)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Completed == 0 {
		t.Fatal("patched simulation stopped serving")
	}
	if ws.Served["s4"] == 0 {
		t.Errorf("added server served nothing: %v", ws.Served)
	}
	if got := m.Snapshot(); !hierarchy.Equivalent(got, target) {
		t.Fatalf("deployed tree after patch:\n%s\nwant:\n%s", got, target)
	}
}

func TestManagedRejectsBadOps(t *testing.T) {
	h := managedStar(t, nil)
	m, err := NewManaged(h, model.DIETDefaults(), 100, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []hierarchy.Op{
		{Kind: hierarchy.OpRemove, Name: "root"},
		{Kind: hierarchy.OpReparent, Name: "s1", Parent: "s2"},
		{Kind: hierarchy.OpAdd, Name: "x", Parent: "s1", Power: 100, Role: hierarchy.RoleServer},
	} {
		if err := m.ApplyOp(op); err == nil {
			t.Errorf("%s accepted", op)
		}
	}
	if !hierarchy.Equivalent(m.Snapshot(), h) {
		t.Errorf("refused ops changed the deployed tree:\n%s", m.Snapshot())
	}
	if _, err := NewManaged(h, model.DIETDefaults(), 100, 10, 1, []LoadPhase{{At: 1, Factors: map[string]float64{"ghost": 2}}}); err == nil {
		t.Error("scenario naming unknown server accepted")
	}
}

// TestManagedSetPowerMovesLink: a set-power carries the node's link as
// well as its power, and the simulated server sends and receives at the
// new link speed; zero restores the deployment default.
func TestManagedSetPowerMovesLink(t *testing.T) {
	m, err := NewManaged(managedStar(t, nil), model.DIETDefaults(), 100, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := m.byName["s1"].(*simServer)
	for _, bw := range []float64{25, 0} {
		if err := m.ApplyOp(hierarchy.Op{Kind: hierarchy.OpSetPower, Name: "s1", Power: 100, Bandwidth: bw}); err != nil {
			t.Fatal(err)
		}
		want := bw
		if bw == 0 {
			want = 100
		}
		if s1.bw != want || s1.rated != 100 {
			t.Errorf("after a set-power with link %g: link %g, rated %g; want %g, 100", bw, s1.bw, s1.rated, want)
		}
	}
}

func TestManagedCrashFailsAndRestoreRecovers(t *testing.T) {
	h := managedStar(t, nil)
	scenario := []LoadPhase{
		{At: 10, Crash: []string{"s1"}},
		{At: 30, Restore: []string{"s1"}},
	}
	m, err := NewManaged(h, model.DIETDefaults(), 100, 10, 6, scenario)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := m.Observe(10)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Failed != 0 {
		t.Fatalf("healthy window recorded %d failures", healthy.Failed)
	}
	crashed, _ := m.Observe(10)
	crashed2, _ := m.Observe(10)
	if crashed.Failed+crashed2.Failed == 0 {
		t.Fatalf("crashed server produced no failures: %+v / %+v", crashed, crashed2)
	}
	// The dead node completes nothing while crashed, but the platform as
	// a whole keeps serving (stale estimates spread load, the crash
	// detector needs platform-wide progress).
	if crashed2.Served["s1"] != 0 {
		t.Errorf("crashed server served %d requests", crashed2.Served["s1"])
	}
	if crashed2.Completed == 0 {
		t.Errorf("platform stopped entirely during the crash: %+v", crashed2)
	}
	// Restored: failures stop (allow the tail of in-flight timeouts in
	// the first window) and the node serves again.
	m.Observe(10)
	restored, _ := m.Observe(10)
	if restored.Failed != 0 {
		t.Errorf("failures persisted after restore: %+v", restored)
	}
	if restored.Served["s1"] == 0 {
		t.Errorf("restored server never served again: %+v", restored)
	}
	if m.Failed() != crashed.Failed+crashed2.Failed {
		// Cumulative counter must reconcile with the window deltas plus
		// anything in the settling window we skipped.
		skipped := m.Failed() - crashed.Failed - crashed2.Failed
		if skipped < 0 {
			t.Errorf("cumulative Failed %d below summed window deltas", m.Failed())
		}
	}
}

func TestManagedClientDepartures(t *testing.T) {
	h := managedStar(t, nil)
	// Off the window boundaries: a phase at exactly t=10 fires inside the
	// first Observe(10) (the engine runs events at t <= 10).
	scenario := []LoadPhase{
		{At: 12, AddClients: 8},
		{At: 22, RemoveClients: 8},
	}
	m, err := NewManaged(h, model.DIETDefaults(), 100, 10, 2, scenario)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := m.Observe(10)
	if base.ActiveClients != 2 {
		t.Fatalf("base population = %d, want 2", base.ActiveClients)
	}
	surge, _ := m.Observe(10)
	if surge.ActiveClients != 10 {
		t.Fatalf("surge population = %d, want 10", surge.ActiveClients)
	}
	after, _ := m.Observe(10)
	if after.ActiveClients != 2 {
		t.Fatalf("population after departures = %d, want 2", after.ActiveClients)
	}
	if surge.Completed <= base.Completed || after.Completed >= surge.Completed {
		t.Errorf("demand trace invisible in completions: %d -> %d -> %d",
			base.Completed, surge.Completed, after.Completed)
	}
}

func TestManagedCrashUnknownServer(t *testing.T) {
	h := managedStar(t, nil)
	if _, err := NewManaged(h, model.DIETDefaults(), 100, 10, 1,
		[]LoadPhase{{At: 1, Crash: []string{"ghost"}}}); err == nil {
		t.Fatal("crash phase naming an unknown server was accepted")
	}
	m, err := NewManaged(h, model.DIETDefaults(), 100, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Crash("ghost"); err == nil {
		t.Fatal("Crash(ghost) succeeded")
	}
	if err := m.Crash("root"); err == nil {
		t.Fatal("Crash(root) succeeded on an agent")
	}
}

// TestManagedChildlessAgentAnswers: an agent a patch leaves without
// children answers with no candidate instead of holding every request
// above it, and a root left without children fails its clients' requests
// after the client timeout.
func TestManagedChildlessAgentAnswers(t *testing.T) {
	h := hierarchy.New("childless")
	root, _ := h.AddRoot("root", 500)
	a1, _ := h.AddAgent(root, "a1", 300)
	for _, s := range []struct {
		parent int
		name   string
	}{{a1, "s1"}, {root, "s2"}} {
		if _, err := h.AddServer(s.parent, s.name, 100); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManaged(h, model.DIETDefaults(), 100, 10, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyOp(hierarchy.Op{Kind: hierarchy.OpRemove, Name: "s1"}); err != nil {
		t.Fatal(err)
	}
	ws, err := m.Observe(10)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Served["s2"] == 0 || ws.Failed != 0 {
		t.Fatalf("with a childless agent beside it, s2 served %d (%d failed)", ws.Served["s2"], ws.Failed)
	}
	for _, name := range []string{"s2", "a1"} {
		if err := m.ApplyOp(hierarchy.Op{Kind: hierarchy.OpRemove, Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	m.Observe(10) // requests s2 had accepted still complete
	ws, err = m.Observe(10)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Completed != 0 || ws.Failed == 0 {
		t.Fatalf("a childless root completed %d and failed %d requests", ws.Completed, ws.Failed)
	}
}
