package runtime_test

import (
	"context"
	goruntime "runtime"
	"testing"
	"time"

	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/runtime"
	"adept/internal/workload"
)

func testOptions(dgemmN int) runtime.Options {
	return runtime.Options{
		Costs:        model.DIETDefaults(),
		Bandwidth:    100,
		Wapp:         workload.DGEMM{N: dgemmN}.MFlop(),
		TimeScale:    0.002, // 1 virtual second = 2ms real
		ReplyTimeout: 2 * time.Second,
	}
}

func buildStar(t *testing.T, servers int) *hierarchy.Hierarchy {
	t.Helper()
	h := hierarchy.New("rt-star")
	root, err := h.AddRoot("agent-0", 400)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < servers; i++ {
		if _, err := h.AddServer(root, "sed-"+string(rune('a'+i)), 400); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func buildTwoLevel(t *testing.T) *hierarchy.Hierarchy {
	t.Helper()
	h := hierarchy.New("rt-tree")
	root, _ := h.AddRoot("root", 400)
	a1, _ := h.AddAgent(root, "a1", 400)
	a2, _ := h.AddAgent(root, "a2", 400)
	for i, p := range []int{a1, a1, a2, a2} {
		if _, err := h.AddServer(p, "sed-"+string(rune('a'+i)), 400); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestRuntimeCompletesRequestsOnChanTransport(t *testing.T) {
	sys, err := runtime.Deploy(buildStar(t, 2), runtime.NewChanTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	stats, err := sys.RunClients(context.Background(), 4, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed == 0 {
		t.Fatalf("no requests completed: %+v, errors: %v", stats, sys.Errors())
	}
	if stats.Failed != 0 {
		t.Errorf("%d failed requests: %v", stats.Failed, sys.Errors())
	}
	t.Logf("completed %d requests, virtual throughput %.1f req/s", stats.Completed, stats.Throughput)
}

func TestRuntimeCompletesRequestsOnTCPTransport(t *testing.T) {
	sys, err := runtime.Deploy(buildStar(t, 2), runtime.NewTCPTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	stats, err := sys.RunClients(context.Background(), 4, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed == 0 {
		t.Fatalf("no requests completed over TCP: %+v, errors: %v", stats, sys.Errors())
	}
	t.Logf("TCP: completed %d requests", stats.Completed)
}

// TestTCPTransportHoldsSteadyAcrossWindows runs successive client windows
// over TCP, as the autonomic monitor does, and checks that a window leaves
// nothing behind: retiring a client closes every connection and goroutine
// that served it, so twenty windows hold what one does.
func TestTCPTransportHoldsSteadyAcrossWindows(t *testing.T) {
	sys, err := runtime.Deploy(buildStar(t, 2), runtime.NewTCPTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	var base int
	for i := 0; i < 20; i++ {
		stats, err := sys.RunClients(context.Background(), 4, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Completed == 0 {
			t.Fatalf("window %d completed nothing: %+v, errors: %v", i, stats, sys.Errors())
		}
		if i == 0 {
			base = goruntime.NumGoroutine()
		}
	}
	if grown := goruntime.NumGoroutine() - base; grown > 8 {
		t.Fatalf("19 more windows left %d more goroutines (%d after the first)", grown, base)
	}
}

func TestRuntimeTwoLevelHierarchyRoutesToAllServers(t *testing.T) {
	sys, err := runtime.Deploy(buildTwoLevel(t), runtime.NewChanTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	stats, err := sys.RunClients(context.Background(), 8, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed == 0 {
		t.Fatal("no requests completed through two-level hierarchy")
	}
	counts := sys.ServedCounts()
	var sum int64
	busy := 0
	for _, c := range counts {
		sum += c
		if c > 0 {
			busy++
		}
	}
	if sum != stats.Completed {
		t.Errorf("Σ Ni = %d but completed = %d (Eq. 6 violated)", sum, stats.Completed)
	}
	if busy < 2 {
		t.Errorf("only %d of 4 servers did work: %v", busy, counts)
	}
}

func TestRuntimeSurvivesServerCrash(t *testing.T) {
	opts := testOptions(200)
	opts.ReplyTimeout = 200 * time.Millisecond
	sys, err := runtime.Deploy(buildStar(t, 2), runtime.NewChanTransport(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if err := sys.CrashServer("sed-a"); err != nil {
		t.Fatal(err)
	}
	stats, err := sys.RunClients(context.Background(), 2, 800*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed == 0 {
		t.Fatalf("platform wedged after a single server crash: %+v", stats)
	}
	counts := sys.ServedCounts()
	if counts["sed-a"] != 0 {
		t.Errorf("crashed server served %d requests", counts["sed-a"])
	}
	if counts["sed-b"] == 0 {
		t.Errorf("surviving server served nothing: %v", counts)
	}
}

func TestRuntimeCrashUnknownServer(t *testing.T) {
	sys, err := runtime.Deploy(buildStar(t, 1), runtime.NewChanTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if err := sys.CrashServer("nope"); err == nil {
		t.Error("expected error crashing unknown server")
	}
}

func TestRuntimeRealDgemmExecution(t *testing.T) {
	opts := testOptions(0)
	opts.Wapp = workload.DGEMM{N: 64}.MFlop()
	opts.DgemmN = 64
	opts.TimeScale = 0 // only real compute, no modelled sleeps
	sys, err := runtime.Deploy(buildStar(t, 2), runtime.NewChanTransport(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	stats, err := sys.RunClients(context.Background(), 2, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed == 0 {
		t.Fatal("no real-DGEMM requests completed")
	}
	t.Logf("real DGEMM 64x64: %d completions", stats.Completed)
}

func TestMeteredTransportCountsTraffic(t *testing.T) {
	mt := runtime.NewMeteredTransport(runtime.NewChanTransport())
	sys, err := runtime.Deploy(buildStar(t, 1), mt, testOptions(100))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if _, err := sys.RunClients(context.Background(), 1, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if mt.TotalMessages() == 0 || mt.TotalBytes() == 0 {
		t.Fatalf("metered transport saw no traffic: %d msgs, %d bytes", mt.TotalMessages(), mt.TotalBytes())
	}
	stats := mt.Stats()
	for _, typ := range []string{"runtime.SchedRequest", "runtime.SchedReply", "runtime.ServiceRequest", "runtime.ServiceReply"} {
		st, ok := stats[typ]
		if !ok || st.Count == 0 {
			t.Errorf("no metered traffic for %s (stats: %v)", typ, stats)
		}
	}
}

func TestDeployRejectsBadOptions(t *testing.T) {
	h := buildStar(t, 1)
	if _, err := runtime.Deploy(h, runtime.NewChanTransport(), runtime.Options{Bandwidth: 0, Wapp: 1}); err == nil {
		t.Error("expected error for zero bandwidth")
	}
	if _, err := runtime.Deploy(h, runtime.NewChanTransport(), runtime.Options{Bandwidth: 100, Wapp: 0}); err == nil {
		t.Error("expected error for zero wapp")
	}
}

func TestRunClientsCancellable(t *testing.T) {
	sys, err := runtime.Deploy(buildStar(t, 2), runtime.NewChanTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	stats, err := sys.RunClients(ctx, 2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("cancelled window took %v, want prompt return", took)
	}
	if stats.Elapsed >= 10*time.Second {
		t.Fatalf("stats report the full window (%v) despite cancellation", stats.Elapsed)
	}
	t.Logf("cancelled after %v with %d completions", stats.Elapsed, stats.Completed)
}

// TestCrashDegradationVisibleInSignals injects a leaf crash mid-load and
// checks that the signal the autonomic Analyze stage consumes is really
// there: the crashed server's ServedCounts freeze while the survivor's
// keep growing, and the LoadStats of the window record timeouts.
func TestCrashDegradationVisibleInSignals(t *testing.T) {
	opts := testOptions(200)
	opts.ReplyTimeout = 150 * time.Millisecond
	sys, err := runtime.Deploy(buildStar(t, 2), runtime.NewChanTransport(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	var atCrash map[string]int64
	done := make(chan struct{})
	time.AfterFunc(300*time.Millisecond, func() {
		defer close(done)
		atCrash = sys.ServedCounts()
		if err := sys.CrashServer("sed-a"); err != nil {
			t.Error(err)
		}
	})
	healthy, err := sys.RunClients(context.Background(), 4, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Crash fires 300ms into this second window: mid-load.
	degraded, err := sys.RunClients(context.Background(), 4, 1000*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	final := sys.ServedCounts()
	if atCrash["sed-a"] == 0 && atCrash["sed-b"] == 0 {
		t.Fatalf("no load before the crash: %v", atCrash)
	}
	// In-flight tolerance of one request that was already executing.
	if final["sed-a"] > atCrash["sed-a"]+1 {
		t.Errorf("crashed server kept serving: %d -> %d", atCrash["sed-a"], final["sed-a"])
	}
	if final["sed-b"] <= atCrash["sed-b"] {
		t.Errorf("surviving server froze too: %d -> %d", atCrash["sed-b"], final["sed-b"])
	}
	// The crashed child wedges every scheduling phase until the agent's
	// reply timeout: per-window throughput collapses — the LoadStats signal
	// the autonomic Analyze stage detects.
	if healthy.Completed == 0 || degraded.Completed == 0 {
		t.Fatalf("platform wedged entirely: healthy %+v degraded %+v", healthy, degraded)
	}
	if degraded.Throughput > healthy.Throughput/2 {
		t.Errorf("throughput degradation not visible: %.1f -> %.1f req/s",
			healthy.Throughput, degraded.Throughput)
	}
	t.Logf("crash signals: served %v -> %v, throughput %.1f -> %.1f req/s (timeouts %d)",
		atCrash, final, healthy.Throughput, degraded.Throughput, degraded.Timeouts)
}

// TestLiveAddRemoveServer grows and shrinks a running deployment under
// load without redeploying.
func TestLiveAddRemoveServer(t *testing.T) {
	sys, err := runtime.Deploy(buildStar(t, 2), runtime.NewChanTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	if err := sys.ApplyOp(hierarchy.Op{Kind: hierarchy.OpAdd, Name: "sed-x", Parent: "agent-0", Power: 400, Role: hierarchy.RoleServer}); err != nil {
		t.Fatal(err)
	}
	stats, err := sys.RunClients(context.Background(), 6, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	counts := sys.ServedCounts()
	if counts["sed-x"] == 0 {
		t.Errorf("added server served nothing: %v (stats %+v)", counts, stats)
	}
	snap := sys.Snapshot()
	if snap.Len() != 4 {
		t.Fatalf("snapshot has %d nodes, want 4:\n%s", snap.Len(), snap)
	}
	if err := snap.Validate(hierarchy.Final); err != nil {
		t.Fatalf("snapshot invalid after add: %v", err)
	}

	if err := sys.ApplyOp(hierarchy.Op{Kind: hierarchy.OpRemove, Name: "sed-b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunClients(context.Background(), 4, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	counts = sys.ServedCounts()
	if _, still := counts["sed-b"]; still {
		t.Errorf("removed server still reporting: %v", counts)
	}
	snap = sys.Snapshot()
	if snap.Len() != 3 {
		t.Fatalf("snapshot has %d nodes after removal, want 3:\n%s", snap.Len(), snap)
	}
	svc := sys.TakeServiceStats()
	if svc["sed-a"].Count == 0 && svc["sed-x"].Count == 0 {
		t.Errorf("no service-time observations after removal: %v", svc)
	}
}

// TestLivePatchMatchesDiff replans a different shape, diffs, applies the
// patch to the live system, and checks the live topology converged to the
// target tree — the Execute step of the MAPE-K loop in isolation.
func TestLivePatchMatchesDiff(t *testing.T) {
	sys, err := runtime.Deploy(buildStar(t, 4), runtime.NewChanTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	// Target: sed-a promoted to an agent holding sed-c, sed-d and a new
	// sed-e; sed-b stays under the root at drifted power.
	target := hierarchy.New("rt-star")
	root, _ := target.AddRoot("agent-0", 400)
	a1, err := target.AddAgent(root, "sed-a", 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.AddServer(root, "sed-b", 200); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sed-c", "sed-d"} {
		if _, err := target.AddServer(a1, name, 400); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := target.AddServer(a1, "sed-e", 300); err != nil {
		t.Fatal(err)
	}

	snap := sys.Snapshot()
	patch, err := hierarchy.Diff(snap, target)
	if err != nil {
		t.Fatal(err)
	}
	if patch.Len() >= target.Len() {
		t.Fatalf("patch (%d ops) not smaller than a redeploy (%d elements):\n%s", patch.Len(), target.Len(), patch)
	}
	if n, err := hierarchy.ApplyEach(sys, patch); err != nil {
		t.Fatalf("applied %d/%d ops: %v", n, patch.Len(), err)
	}
	after := sys.Snapshot()
	if !hierarchy.Equivalent(after, target) {
		t.Fatalf("live topology differs from target:\nlive:\n%s\ntarget:\n%s", after, target)
	}
	stats, err := sys.RunClients(context.Background(), 6, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed == 0 {
		t.Fatalf("patched platform serves nothing: %+v, errors %v", stats, sys.Errors())
	}
	// The added server is deployed and visible in the Ni accounting; whether
	// it wins requests depends on the estimates (faster servers may
	// legitimately absorb the whole load).
	if _, ok := sys.ServedCounts()["sed-e"]; !ok {
		t.Errorf("server added by patch missing from ServedCounts: %v", sys.ServedCounts())
	}
}

// TestBackgroundLoadSlowsServer checks the drift-injection primitive: a
// loaded server's observed service time roughly doubles while its
// predictions (rated power) stay stale until SetPower teaches them.
func TestBackgroundLoadSlowsServer(t *testing.T) {
	sys, err := runtime.Deploy(buildStar(t, 2), runtime.NewChanTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if _, err := sys.RunClients(context.Background(), 4, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	base := sys.TakeServiceStats()
	if err := sys.SetBackgroundLoad("sed-a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunClients(context.Background(), 4, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	loaded := sys.TakeServiceStats()
	if base["sed-a"].Count == 0 || loaded["sed-a"].Count == 0 {
		t.Fatalf("missing observations: base %v loaded %v", base, loaded)
	}
	baseMean := base["sed-a"].Seconds / float64(base["sed-a"].Count)
	loadedMean := loaded["sed-a"].Seconds / float64(loaded["sed-a"].Count)
	if loadedMean < 1.5*baseMean {
		t.Errorf("background load barely visible: %.4fs -> %.4fs", baseMean, loadedMean)
	}
}

// TestLiveLoadSharingFollowsPower: on a 400/200 star every server's
// estimate counts the service requests it has accepted and not finished,
// so the slower server takes its share instead of none, and the faster
// one serves more.
func TestLiveLoadSharingFollowsPower(t *testing.T) {
	h := hierarchy.New("share")
	root, _ := h.AddRoot("agent-0", 400)
	for name, power := range map[string]float64{"fast": 400, "slow": 200} {
		if _, err := h.AddServer(root, name, power); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := runtime.Deploy(h, runtime.NewChanTransport(), testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	stats, err := sys.RunClients(context.Background(), 4, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	served := sys.ServedCounts()
	total := served["fast"] + served["slow"]
	if total != stats.Completed || total == 0 {
		t.Fatalf("served %v, completed %d", served, stats.Completed)
	}
	for name, n := range served {
		if float64(n) < 0.15*float64(total) {
			t.Errorf("%s served %d of %d completions, want at least 15%%", name, n, total)
		}
	}
	if served["fast"] <= served["slow"] {
		t.Errorf("the 400 MFlop/s server served %d, the 200 one %d", served["fast"], served["slow"])
	}
}

// probe sends one scheduling request to the root as a client would, on
// an inbox registered as "probe", and returns the reply and its round
// trip in virtual seconds.
func probe(t *testing.T, tr runtime.Transport, inbox <-chan runtime.Envelope, id uint64, scale float64) (runtime.SchedReply, float64) {
	t.Helper()
	start := time.Now()
	if err := tr.Send("probe", "agent-0", runtime.SchedRequest{ID: id, ReplyTo: "probe"}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-inbox:
		return env.Msg.(runtime.SchedReply), time.Since(start).Seconds() / scale
	case <-time.After(5 * time.Second):
		t.Fatal("no scheduling reply")
	}
	return runtime.SchedReply{}, 0
}

// TestLiveWideStarReturnsEveryCandidate: the ranked list reaches the
// client whole, however many servers reply.
func TestLiveWideStarReturnsEveryCandidate(t *testing.T) {
	tr := runtime.NewChanTransport()
	sys, err := runtime.Deploy(buildStar(t, 12), tr, testOptions(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	inbox, err := tr.Register("probe")
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := probe(t, tr, inbox, 1, 1)
	if len(reply.Candidates) != 12 {
		t.Fatalf("client got %d candidates from 12 servers: %v", len(reply.Candidates), reply.Candidates)
	}
}

// TestLiveElementsSendAtTheirOwnLink: a server on a slow link slows the
// scheduling round trip by its own messages' time, whether the link comes
// from Deploy, from an add op or from a set-power op.
func TestLiveElementsSendAtTheirOwnLink(t *testing.T) {
	const slow = 1e-3 // Mb/s: a server's two scheduling messages take > 0.1 s
	h := hierarchy.New("links")
	root, _ := h.AddRoot("agent-0", 400)
	if _, err := h.AddServer(root, "sed-a", 400, slow); err != nil {
		t.Fatal(err)
	}
	tr := runtime.NewChanTransport()
	opts := testOptions(200)
	opts.TimeScale = 1
	sys, err := runtime.Deploy(h, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	inbox, err := tr.Register("probe")
	if err != nil {
		t.Fatal(err)
	}
	c := opts.Costs
	slowTrip := (c.ServerSreq + c.ServerSrep) / slow
	check := func(id uint64, stage string, wantSlow bool) {
		t.Helper()
		_, trip := probe(t, tr, inbox, id, opts.TimeScale)
		if wantSlow && trip < slowTrip || !wantSlow && trip > slowTrip/2 {
			t.Errorf("%s: round trip %.3f s, slow link alone takes %.3f s", stage, trip, slowTrip)
		}
	}
	check(1, "deployed on a slow link", true)
	if err := sys.ApplyOp(hierarchy.Op{Kind: hierarchy.OpSetPower, Name: "sed-a", Power: 400}); err != nil {
		t.Fatal(err)
	}
	check(2, "set-power back to the default link", false)
	if err := sys.ApplyOp(hierarchy.Op{Kind: hierarchy.OpAdd, Name: "sed-b", Parent: "agent-0", Power: 400, Role: hierarchy.RoleServer, Bandwidth: slow}); err != nil {
		t.Fatal(err)
	}
	check(3, "added on a slow link", true)
	if err := sys.ApplyOp(hierarchy.Op{Kind: hierarchy.OpSetPower, Name: "sed-b", Power: 400, Bandwidth: 100}); err != nil {
		t.Fatal(err)
	}
	check(4, "set-power onto a fast link", false)
}

// TestMeteredRunCarriesNoTimerTraffic: an agent's reply timeout is its
// own business; a run longer than ReplyTimeout puts nothing but protocol
// messages on the wire.
func TestMeteredRunCarriesNoTimerTraffic(t *testing.T) {
	mt := runtime.NewMeteredTransport(runtime.NewChanTransport())
	opts := testOptions(100)
	opts.ReplyTimeout = 50 * time.Millisecond
	sys, err := runtime.Deploy(buildStar(t, 2), mt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if _, err := sys.RunClients(context.Background(), 2, 400*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for typ := range mt.Stats() {
		switch typ {
		case "runtime.SchedRequest", "runtime.SchedReply", "runtime.ServiceRequest", "runtime.ServiceReply":
		default:
			t.Errorf("metered %s traffic: %v", typ, mt.Stats()[typ])
		}
	}
}
