package adept_test

import (
	"fmt"
	"testing"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/sim"
	"adept/internal/workload"
)

// threeClusterGrid builds the canonical heterogeneous-links demo platform:
// a local cluster of modest nodes on the fast LAN, and two remote clusters
// of powerful nodes reached over a slow WAN uplink. A link-blind planner
// drafts the powerful remote nodes as agents — exactly wrong, because
// agent traffic (requests down, replies up, per child) is what saturates a
// slow link, while server traffic is tiny.
func threeClusterGrid() *platform.Platform {
	p := &platform.Platform{Name: "three-cluster", Bandwidth: 100}
	for i := 0; i < 5; i++ {
		p.Nodes = append(p.Nodes, platform.Node{
			Name: fmt.Sprintf("local-%02d", i), Power: 300,
		})
	}
	for c := 1; c <= 2; c++ {
		for i := 0; i < 5; i++ {
			p.Nodes = append(p.Nodes, platform.Node{
				Name: fmt.Sprintf("remote%d-%02d", c, i), Power: 900, LinkBandwidth: 2,
			})
		}
	}
	return p
}

// blindView strips the per-node links: the platform as a bandwidth-unaware
// administrator would describe it.
func blindView(p *platform.Platform) *platform.Platform {
	cp := p.Clone()
	for i := range cp.Nodes {
		cp.Nodes[i].LinkBandwidth = 0
	}
	return cp
}

// withRealLinks re-binds a deployment tree onto the true per-node link
// bandwidths of plat, so a plan computed against the blind view can be
// simulated on the physical network it would actually run on.
func withRealLinks(t *testing.T, h *hierarchy.Hierarchy, plat *platform.Platform) *hierarchy.Hierarchy {
	t.Helper()
	links := make(map[string]float64, len(plat.Nodes))
	for _, n := range plat.Nodes {
		links[n.Name] = n.LinkBandwidth
	}
	out, err := h.WithLinkBandwidths(links)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMultiClusterPlanBeatsUniformModel is the heterogeneous-links
// acceptance demo: on a 3-cluster grid, the link-aware plan must beat the
// plan computed from the uniform-bandwidth model of the same pool — not
// just in the analytic model, but in *simulated* throughput on the same
// clustered network.
func TestMultiClusterPlanBeatsUniformModel(t *testing.T) {
	plat := threeClusterGrid()
	costs := model.DIETDefaults()
	wapp := workload.DGEMM{N: 100}.MFlop()

	aware, err := core.NewHeuristic().PlanContext(t.Context(), core.Request{Platform: plat, Costs: costs, Wapp: wapp})
	if err != nil {
		t.Fatal(err)
	}
	blind, err := core.NewHeuristic().PlanContext(t.Context(), core.Request{Platform: blindView(plat), Costs: costs, Wapp: wapp})
	if err != nil {
		t.Fatal(err)
	}

	// The blind plan rides the real network: rebuild it with true links.
	blindReal := withRealLinks(t, blind.Hierarchy, plat)

	cfg := sim.Config{Clients: 40, Warmup: 2, Window: 10}
	awareRes, err := sim.Measure(aware.Hierarchy, costs, plat.Bandwidth, wapp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	blindRes, err := sim.Measure(blindReal, costs, plat.Bandwidth, wapp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("aware: predicted ρ=%.1f, simulated %.1f req/s\n%s", aware.Eval.Rho, awareRes.Throughput, aware.Hierarchy)
	t.Logf("blind: predicted ρ=%.1f (uniform model), simulated %.1f req/s\n%s", blind.Eval.Rho, blindRes.Throughput, blindReal)

	if awareRes.Throughput <= blindRes.Throughput*1.2 {
		t.Errorf("link-aware plan must clearly beat the uniform-model plan on the clustered sim: %.1f vs %.1f req/s",
			awareRes.Throughput, blindRes.Throughput)
	}

	// The honest model agrees: re-evaluating the blind tree with the true
	// links cannot beat the aware plan's prediction.
	blindHonest := blindReal.Evaluate(costs, plat.Bandwidth, wapp)
	if aware.Eval.Rho < blindHonest.Rho {
		t.Errorf("aware predicted ρ %.2f below blind plan's honest ρ %.2f", aware.Eval.Rho, blindHonest.Rho)
	}
}
