package sim_test

import (
	"testing"

	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/sim"
	"adept/internal/stats"
	"adept/internal/workload"
)

const testBW = 100.0

// star builds a 1-agent star with the given server powers.
func star(t *testing.T, agentPower float64, serverPowers ...float64) *hierarchy.Hierarchy {
	t.Helper()
	h := hierarchy.New("star")
	root, err := h.AddRoot("agent", agentPower)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range serverPowers {
		if _, err := h.AddServer(root, serverName(i), w); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func serverName(i int) string {
	return "sed-" + string(rune('a'+i))
}

func measureSaturated(t *testing.T, h *hierarchy.Hierarchy, wapp float64) sim.Result {
	t.Helper()
	res, err := sim.Plateau(h, model.DIETDefaults(), testBW, wapp, 5, 20, 256, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimMatchesModelServerLimitedStar(t *testing.T) {
	// DGEMM 200x200 on a 1-server star is server-limited (Figs. 4–5): the
	// simulator's saturated throughput must match Eq. 16 closely.
	wapp := workload.DGEMM{N: 200}.MFlop()
	for _, servers := range [][]float64{{400}, {400, 400}} {
		h := star(t, 400, servers...)
		pred := h.Evaluate(model.DIETDefaults(), testBW, wapp)
		res := measureSaturated(t, h, wapp)
		t.Logf("%d server(s): predicted %.2f, measured %.2f req/s", len(servers), pred.Rho, res.Throughput)
		if !stats.WithinTolerance(res.Throughput, pred.Rho, 0.1) {
			t.Errorf("%d server(s): measured %.2f req/s, model predicts %.2f (>10%% off)",
				len(servers), res.Throughput, pred.Rho)
		}
	}
}

func TestSimSecondServerDoublesServerLimitedThroughput(t *testing.T) {
	// The Figs. 4–5 shape: with large requests, adding a second server
	// roughly doubles throughput.
	wapp := workload.DGEMM{N: 200}.MFlop()
	one := measureSaturated(t, star(t, 400, 400), wapp)
	two := measureSaturated(t, star(t, 400, 400, 400), wapp)
	ratio := two.Throughput / one.Throughput
	t.Logf("1 SeD: %.2f, 2 SeDs: %.2f req/s (x%.2f)", one.Throughput, two.Throughput, ratio)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("second server scaled throughput by %.2f, want ~2.0", ratio)
	}
}

func TestSimSecondServerHurtsAgentLimitedThroughput(t *testing.T) {
	// The Figs. 2–3 shape: with tiny requests the agent is the bottleneck
	// and a second server lowers throughput.
	wapp := workload.DGEMM{N: 10}.MFlop()
	one := measureSaturated(t, star(t, 400, 400), wapp)
	two := measureSaturated(t, star(t, 400, 400, 400), wapp)
	t.Logf("1 SeD: %.2f, 2 SeDs: %.2f req/s", one.Throughput, two.Throughput)
	if two.Throughput >= one.Throughput {
		t.Errorf("agent-limited: 2 SeDs (%.2f) should be slower than 1 SeD (%.2f)",
			two.Throughput, one.Throughput)
	}
}

func TestSimAgentLimitedStarMatchesModel(t *testing.T) {
	wapp := workload.DGEMM{N: 10}.MFlop()
	h := star(t, 400, 400)
	pred := h.Evaluate(model.DIETDefaults(), testBW, wapp)
	res := measureSaturated(t, h, wapp)
	t.Logf("predicted %.2f, measured %.2f req/s", pred.Rho, res.Throughput)
	if !stats.WithinTolerance(res.Throughput, pred.Rho, 0.15) {
		t.Errorf("measured %.2f req/s, model predicts %.2f (>15%% off)", res.Throughput, pred.Rho)
	}
}

func TestSimThreeLevelHierarchy(t *testing.T) {
	// Two agents over four servers: sim must run the full recursive
	// protocol and stay within tolerance of the model.
	h := hierarchy.New("two-level")
	root, _ := h.AddRoot("root", 400)
	a1, _ := h.AddAgent(root, "a1", 400)
	a2, _ := h.AddAgent(root, "a2", 400)
	for i, parent := range []int{a1, a1, a2, a2} {
		if _, err := h.AddServer(parent, serverName(i), 400); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Validate(hierarchy.Final); err != nil {
		t.Fatal(err)
	}
	wapp := workload.DGEMM{N: 200}.MFlop()
	pred := h.Evaluate(model.DIETDefaults(), testBW, wapp)
	res := measureSaturated(t, h, wapp)
	t.Logf("predicted %.2f, measured %.2f req/s", pred.Rho, res.Throughput)
	if !stats.WithinTolerance(res.Throughput, pred.Rho, 0.15) {
		t.Errorf("measured %.2f req/s, model predicts %.2f (>15%% off)", res.Throughput, pred.Rho)
	}
}

func TestSimConservationPerServerCountsSumToCompleted(t *testing.T) {
	// Eq. 6: Σ Ni = N.
	wapp := workload.DGEMM{N: 200}.MFlop()
	h := star(t, 400, 400, 300, 200)
	res, err := sim.Measure(h, model.DIETDefaults(), testBW, wapp, sim.Config{Clients: 32, Warmup: 0, Window: 30})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range res.PerServer {
		sum += n
	}
	if sum != res.Completed {
		t.Errorf("per-server counts sum to %d, completed = %d", sum, res.Completed)
	}
	if got := len(res.PerServer); got != 3 {
		t.Errorf("%d servers received work, want 3", got)
	}
}

func TestSimLoadSharingFollowsPower(t *testing.T) {
	// Heterogeneous servers should complete requests roughly proportionally
	// to their power (Eq. 8), thanks to the prediction-based selection.
	wapp := workload.DGEMM{N: 200}.MFlop()
	h := star(t, 400, 400, 200)
	res, err := sim.Measure(h, model.DIETDefaults(), testBW, wapp, sim.Config{Clients: 32, Warmup: 10, Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	fast := float64(res.PerServer[serverName(0)])
	slow := float64(res.PerServer[serverName(1)])
	if slow == 0 {
		t.Fatal("slow server did no work")
	}
	ratio := fast / slow
	t.Logf("fast/slow completion ratio = %.2f (power ratio 2.0)", ratio)
	if ratio < 1.6 || ratio > 2.5 {
		t.Errorf("completion ratio %.2f, want ≈2.0 (power-proportional sharing)", ratio)
	}
}

func TestSimLoadSeriesIsSaturating(t *testing.T) {
	wapp := workload.DGEMM{N: 200}.MFlop()
	h := star(t, 400, 400, 400)
	pts, err := sim.LoadSeries(h, model.DIETDefaults(), testBW, wapp, []int{1, 2, 4, 8, 16}, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Throughput < pts[i-1].Throughput*0.9 {
			t.Errorf("load series dipped: %.2f@%d -> %.2f@%d",
				pts[i-1].Throughput, pts[i-1].Clients, pts[i].Throughput, pts[i].Clients)
		}
	}
	if pts[len(pts)-1].Throughput <= pts[0].Throughput {
		t.Errorf("series never grew: first %.2f, last %.2f", pts[0].Throughput, pts[len(pts)-1].Throughput)
	}
}

func TestEngineDeterminism(t *testing.T) {
	wapp := workload.DGEMM{N: 100}.MFlop()
	run := func() sim.Result {
		h := star(t, 400, 400, 300)
		res, err := sim.Measure(h, model.DIETDefaults(), testBW, wapp, sim.Config{Clients: 8, Warmup: 2, Window: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Events != b.Events {
		t.Errorf("simulation not deterministic: (%d,%d) vs (%d,%d)", a.Completed, a.Events, b.Completed, b.Events)
	}
}
