package sim_test

import (
	"testing"

	"adept/internal/model"
	"adept/internal/sim"
	"adept/internal/workload"
)

func TestSimLatencySummary(t *testing.T) {
	h := star(t, 400, 400, 400)
	wapp := workload.DGEMM{N: 200}.MFlop()
	res, err := sim.Measure(h, model.DIETDefaults(), testBW, wapp,
		sim.Config{Clients: 8, Warmup: 2, Window: 20})
	if err != nil {
		t.Fatal(err)
	}
	lat := res.Latency
	if lat.N == 0 {
		t.Fatal("no latency samples")
	}
	if lat.Mean <= 0 || lat.P50 <= 0 {
		t.Errorf("degenerate latency summary %+v", lat)
	}
	if !(lat.P50 <= lat.P95 && lat.P95 <= lat.P99) {
		t.Errorf("percentiles not monotone: %+v", lat)
	}
	// 8 closed-loop clients at ~50 req/s: Little's law says mean latency
	// ≈ 8/50 = 0.16 s; allow generous tolerance.
	if lat.Mean < 0.05 || lat.Mean > 0.5 {
		t.Errorf("mean latency %.3f s implausible for 8 clients at ~50 req/s", lat.Mean)
	}
}

func TestSimLatencyGrowsWithLoad(t *testing.T) {
	h := star(t, 400, 400)
	wapp := workload.DGEMM{N: 200}.MFlop()
	measure := func(clients int) float64 {
		res, err := sim.Measure(h, model.DIETDefaults(), testBW, wapp,
			sim.Config{Clients: clients, Warmup: 2, Window: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean
	}
	low, high := measure(2), measure(32)
	t.Logf("mean latency: 2 clients %.3fs, 32 clients %.3fs", low, high)
	if high <= low {
		t.Errorf("latency should grow with load: %.3f vs %.3f", low, high)
	}
}
