package core_test

import (
	"math"
	"testing"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// clusterGridCorpus is the heterogeneous-link platform sweep shared by the
// property tests below: the cluster-grid and fat-tree families at several
// sizes and seeds.
func clusterGridCorpus(t *testing.T) []*platform.Platform {
	t.Helper()
	var out []*platform.Platform
	for _, fam := range []scenario.Family{scenario.ClusterGrid, scenario.FatTree} {
		for _, n := range []int{4, 12, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				p, err := scenario.Spec{Family: fam, N: n, Seed: seed * 7}.Generate()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, p)
			}
		}
	}
	return out
}

// TestClusterGridPlanProperties runs the full plan-invariant battery over
// the heterogeneous-link corpus: plan validity, the ρ = min(sched,
// service) law, star dominance, and incremental-vs-naive evaluator
// agreement at 1e-9 — all under per-node link bandwidths.
func TestClusterGridPlanProperties(t *testing.T) {
	for _, plat := range clusterGridCorpus(t) {
		for _, dgemm := range []int{100, 1000} {
			req := core.Request{
				Platform: plat,
				Costs:    model.DIETDefaults(),
				Wapp:     workload.DGEMM{N: dgemm}.MFlop(),
			}
			planInvariants(t, req, plat.Name)
		}
	}
}

// scaleLinks returns a copy of p with every effective link bandwidth
// multiplied by f: the platform default scales, and every per-node
// override scales with it.
func scaleLinks(p *platform.Platform, f float64) *platform.Platform {
	cp := p.Clone()
	cp.Bandwidth *= f
	for i := range cp.Nodes {
		cp.Nodes[i].LinkBandwidth *= f
	}
	return cp
}

// TestLinkBandwidthMonotonicity: uniformly raising link bandwidths never
// lowers the planned throughput. Every term of the §3 model is
// non-decreasing in bandwidth, so the optimum is monotone; this pins the
// plain heuristic to that law *exactly* across the heterogeneous corpus —
// a greedy planner that flipped to a worse shape on a faster network
// would fail here (the best-star and best-pair snapshot scans exist
// precisely to close those flips). The swap-refined variant is
// path-dependent local search: its improvement walk may end in a
// marginally different basin at a different bandwidth, so it gets a 1%
// envelope instead of exactness — a genuine shape regression would blow
// far past that.
func TestLinkBandwidthMonotonicity(t *testing.T) {
	cases := []struct {
		planner core.Planner
		slack   float64
	}{
		{core.NewHeuristic(), 1e-9},
		{&core.SwapRefiner{}, 0.01},
	}
	for _, plat := range clusterGridCorpus(t) {
		wapp := workload.DGEMM{N: 310}.MFlop()
		for _, tc := range cases {
			prev := -1.0
			for _, f := range []float64{1, 2, 8} {
				req := core.Request{
					Platform: scaleLinks(plat, f),
					Costs:    model.DIETDefaults(),
					Wapp:     wapp,
				}
				plan, err := tc.planner.PlanContext(t.Context(), req)
				if err != nil {
					t.Fatalf("%s x%g: %s: %v", plat.Name, f, tc.planner.Name(), err)
				}
				if plan.Capped < prev && !relClose(plan.Capped, prev, tc.slack) {
					t.Errorf("%s: %s: raising links x%g lowered planned throughput %.9g -> %.9g",
						plat.Name, tc.planner.Name(), f, prev, plan.Capped)
				}
				if plan.Capped > prev {
					prev = plan.Capped
				}
			}
		}
	}
	// The model law itself is strict: re-evaluating a *fixed* tree under
	// uniformly raised links never lowers any throughput term.
	for _, plat := range clusterGridCorpus(t)[:6] {
		req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop()}
		plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		base := plan.Hierarchy.Evaluate(req.Costs, plat.Bandwidth, req.Wapp)
		// Per-node overrides don't scale with the default, so scale them
		// in the tree before the raised-links evaluation.
		scaled := plan.Hierarchy.Clone()
		for _, n := range scaled.Nodes() {
			if n.Bandwidth > 0 {
				if err := scaled.SetBacking(n.ID, n.Name, n.Power, 2*n.Bandwidth); err != nil {
					t.Fatal(err)
				}
			}
		}
		fast := scaled.Evaluate(req.Costs, 2*plat.Bandwidth, req.Wapp)
		if fast.Rho < base.Rho || fast.Sched < base.Sched || fast.Service < base.Service {
			t.Errorf("%s: fixed-tree evaluation not monotone: %+v -> %+v", plat.Name, base, fast)
		}
	}
}

// TestUniformExplicitLinksBitIdentical: writing the platform-wide B
// explicitly into every node's LinkBandwidth must not change planning —
// same tree (names, roles, structure), same predicted throughput — even
// though the plan flows through the per-node override code path end to
// end.
func TestUniformExplicitLinksBitIdentical(t *testing.T) {
	for _, spec := range scenario.Corpus(99, 5, 24) {
		if spec.Family == scenario.ClusterGrid || spec.Family == scenario.FatTree {
			continue // already heterogeneous; the implicit form differs by design
		}
		plat, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		explicit := plat.Clone()
		for i := range explicit.Nodes {
			explicit.Nodes[i].LinkBandwidth = explicit.Bandwidth
		}
		req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop()}
		reqExp := req
		reqExp.Platform = explicit

		for _, pl := range []core.Planner{core.NewHeuristic(), &core.SwapRefiner{}} {
			a, err := pl.PlanContext(t.Context(), req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pl.PlanContext(t.Context(), reqExp)
			if err != nil {
				t.Fatal(err)
			}
			if a.Eval.Rho != b.Eval.Rho || a.Eval.Sched != b.Eval.Sched || a.Eval.Service != b.Eval.Service {
				t.Errorf("%s: %s: explicit-B evaluation diverged: (%v) vs (%v)", plat.Name, pl.Name(), a.Eval, b.Eval)
			}
			if !sameShape(a.Hierarchy, b.Hierarchy) {
				t.Errorf("%s: %s: explicit-B tree diverged:\n%s\nvs\n%s", plat.Name, pl.Name(), a.Hierarchy, b.Hierarchy)
			}
		}
	}
}

// sameShape compares two hierarchies node by node ignoring the link
// bandwidth field (the only field the explicit-B rewrite changes).
func sameShape(a, b *hierarchy.Hierarchy) bool {
	an, bn := a.Nodes(), b.Nodes()
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		if an[i].Name != bn[i].Name || an[i].Role != bn[i].Role ||
			an[i].Power != bn[i].Power || an[i].Parent != bn[i].Parent {
			return false
		}
	}
	return true
}

// TestEvaluateLinksCollapsesToEvaluate pins the heterogeneous model entry
// point to the paper's homogeneous form when no node carries an override.
func TestEvaluateLinksCollapsesToEvaluate(t *testing.T) {
	c := model.DIETDefaults()
	agents := []model.Agent{{Power: 700, Degree: 3}, {Power: 300, Degree: 2}}
	powers := []float64{400, 250, 900}
	servers := make([]model.Server, len(powers))
	for i, w := range powers {
		servers[i] = model.Server{Power: w}
	}
	for _, bw := range []float64{10, 100, 1000} {
		a := model.Evaluate(c, bw, 59.582, agents, powers)
		b := model.EvaluateLinks(c, bw, 59.582, agents, servers)
		if a != b {
			t.Errorf("bw %g: Evaluate %+v != EvaluateLinks %+v", bw, a, b)
		}
	}
	// And the slowest-server-link rule: one slow server drags the service
	// transfer term, never the computation aggregate.
	servers[1].Bandwidth = 5
	slow := model.EvaluateLinks(c, 100, 59.582, agents, servers)
	uni := model.Evaluate(c, 100, 59.582, agents, powers)
	if slow.Service >= uni.Service {
		t.Errorf("slow server link must lower service throughput: %g >= %g", slow.Service, uni.Service)
	}
	if want := model.ServiceThroughputLinks(c, 100, 59.582, servers); slow.Service != want {
		t.Errorf("service %g != ServiceThroughputLinks %g", slow.Service, want)
	}
	if math.Min(slow.Sched, slow.Service) != slow.Rho {
		t.Errorf("rho law violated: %+v", slow)
	}
}
