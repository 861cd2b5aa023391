package core_test

import (
	"math"
	"testing"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// relClose reports |a-b| <= tol relative to max(|a|,|b|,1).
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) <= tol*scale
}

// planInvariants runs the full invariant battery on one generated request.
// It is shared by the fuzz target and the corpus property test.
func planInvariants(t *testing.T, req core.Request, label string) {
	t.Helper()
	hp, err := core.NewHeuristic().Plan(req)
	if err != nil {
		t.Fatalf("%s: heuristic: %v", label, err)
	}

	// 1. The plan satisfies the paper's shape invariants and maps onto the
	// platform pool.
	if err := hp.Hierarchy.Validate(hierarchy.Final); err != nil {
		t.Errorf("%s: invalid plan: %v\n%s", label, err, hp.Hierarchy)
	}
	if err := hp.Hierarchy.CheckAgainstPlatform(req.Platform); err != nil {
		t.Errorf("%s: plan outside platform: %v", label, err)
	}

	// 2. ρ = min(ρ_sched, ρ_service), and the demand cap holds.
	if want := math.Min(hp.Eval.Sched, hp.Eval.Service); hp.Eval.Rho != want {
		t.Errorf("%s: rho %g != min(sched %g, service %g)", label, hp.Eval.Rho, hp.Eval.Sched, hp.Eval.Service)
	}
	if req.Demand.Bounded() && hp.Capped > float64(req.Demand) {
		t.Errorf("%s: capped %g exceeds demand %g", label, hp.Capped, float64(req.Demand))
	}

	// 3. The heuristic never predicts below the intuitive star baseline
	// (on demand-capped requests the comparison is on useful throughput:
	// the planner deliberately trades surplus ρ for fewer nodes).
	sp, err := (&baseline.Star{}).Plan(req)
	if err != nil {
		t.Fatalf("%s: star: %v", label, err)
	}
	if hp.Capped < sp.Capped && !relClose(hp.Capped, sp.Capped, 1e-9) {
		t.Errorf("%s: heuristic capped %.9g below star %.9g\nplatform: %s", label, hp.Capped, sp.Capped, platformJSON(t, req.Platform))
	}
	if !req.Demand.Bounded() && hp.Eval.Rho < sp.Eval.Rho && !relClose(hp.Eval.Rho, sp.Eval.Rho, 1e-9) {
		t.Errorf("%s: heuristic rho %.9g below star rho %.9g\nplatform: %s", label, hp.Eval.Rho, sp.Eval.Rho, platformJSON(t, req.Platform))
	}

	// 4. The incremental evaluator agrees with the naive reference on the
	// finished deployment and on a speculative what-if.
	inc := core.NewEvaluator(req.Costs, req.Platform.Bandwidth, req.Wapp)
	naive := core.NewNaiveEvaluator(req.Costs, req.Platform.Bandwidth, req.Wapp)
	core.LoadHierarchy(inc, hp.Hierarchy)
	core.LoadHierarchy(naive, hp.Hierarchy)
	is, iv := inc.Eval()
	ns, nv := naive.Eval()
	if !relClose(is, ns, 1e-9) || !relClose(iv, nv, 1e-9) {
		t.Errorf("%s: evaluators disagree: incremental (%.12g, %.12g) vs naive (%.12g, %.12g)", label, is, iv, ns, nv)
	}
	if !relClose(is, hp.Eval.Sched, 1e-9) || !relClose(iv, hp.Eval.Service, 1e-9) {
		t.Errorf("%s: evaluator (%.12g, %.12g) disagrees with model (%.12g, %.12g)", label, is, iv, hp.Eval.Sched, hp.Eval.Service)
	}
	root := hp.Hierarchy.Root()
	probeNode := req.Platform.Nodes[len(req.Platform.Nodes)/2]
	probe, probeBW := probeNode.Power, probeNode.LinkBandwidth
	if !relClose(inc.RhoAfterAttach(root, probe, probeBW), naive.RhoAfterAttach(root, probe, probeBW), 1e-9) {
		t.Errorf("%s: RhoAfterAttach disagrees: %.12g vs %.12g", label, inc.RhoAfterAttach(root, probe, probeBW), naive.RhoAfterAttach(root, probe, probeBW))
	}

	// 5. Planning through the naive evaluator yields the same throughput.
	np, err := core.NewHeuristicNaive().Plan(req)
	if err != nil {
		t.Fatalf("%s: naive heuristic: %v", label, err)
	}
	if !relClose(np.Eval.Rho, hp.Eval.Rho, 1e-9) {
		t.Errorf("%s: naive-evaluator plan rho %.12g != incremental %.12g", label, np.Eval.Rho, hp.Eval.Rho)
	}

	// 6. The swap refiner never loses throughput.
	rp, err := (&core.SwapRefiner{Inner: core.NewHeuristic()}).Plan(req)
	if err != nil {
		t.Fatalf("%s: swap: %v", label, err)
	}
	if rp.Capped < hp.Capped {
		t.Errorf("%s: swap-refined capped %.9g below plain %.9g", label, rp.Capped, hp.Capped)
	}

	// 7. Class-collapse invariants: expand(collapse(pool)) preserves the
	// spec multiset, and planning the class-built pool yields the plan of
	// the node-built pool, byte for byte.
	checkClassRoundTrip(t, req.Platform.Nodes, label)
	classVsNode(t, req, label)
}

func platformJSON(t *testing.T, p *platform.Platform) string {
	t.Helper()
	data, err := p.MarshalIndent()
	if err != nil {
		return err.Error()
	}
	return string(data)
}

// applyLinkPattern mutates the platform's per-node link bandwidths by one
// of four deterministic patterns (linkSel's low two bits), so the fuzz
// battery covers heterogeneous links without a second generation pass:
//
//	0: untouched (whatever the scenario family generated — the two
//	   heterogeneous-link families arrive with links already set);
//	1: every other node dropped to B/8 (a half-slow pool);
//	2: three link classes round-robin (default, B/2, B/16);
//	3: every node explicitly pinned to B — semantically uniform, but
//	   through the explicit-override code path.
//
// Bit 4 overlays the sort-key collision: every odd node still on the raw
// default gets an explicit override equal to it, so one spec is listed two
// ways — distinct classes the planner must rank identically.
func applyLinkPattern(plat *platform.Platform, linkSel uint8) {
	b := plat.Bandwidth
	defer func() {
		if linkSel&(1<<4) == 0 {
			return
		}
		for i := 1; i < len(plat.Nodes); i += 2 {
			if plat.Nodes[i].LinkBandwidth == 0 {
				plat.Nodes[i].LinkBandwidth = b
			}
		}
	}()
	switch linkSel % 4 {
	case 0:
	case 1:
		for i := range plat.Nodes {
			if i%2 == 1 {
				plat.Nodes[i].LinkBandwidth = b / 8
			}
		}
	case 2:
		classes := []float64{0, b / 2, b / 16}
		for i := range plat.Nodes {
			plat.Nodes[i].LinkBandwidth = classes[i%3]
		}
	case 3:
		for i := range plat.Nodes {
			plat.Nodes[i].LinkBandwidth = b
		}
	}
}

// applyPowerPattern mutates node powers by one of four deterministic
// patterns, so the fuzz battery exercises the class-collapse boundaries
// (spec bucketing is exact on float64 bits — see core.ClassIndex):
//
//	0: untouched (continuous draws — usually all-distinct specs);
//	1: homogenised — every node gets node 0's power (a single class);
//	2: snapped to at most 6 evenly spaced levels (duplicated specs);
//	3: near-duplicates — each odd node one ulp above its even
//	   predecessor (distinct classes a single bit apart).
func applyPowerPattern(plat *platform.Platform, powSel uint8) {
	switch powSel % 4 {
	case 0:
	case 1:
		w := plat.Nodes[0].Power
		for i := range plat.Nodes {
			plat.Nodes[i].Power = w
		}
	case 2:
		lo, hi := plat.Nodes[0].Power, plat.Nodes[0].Power
		for _, n := range plat.Nodes {
			lo, hi = math.Min(lo, n.Power), math.Max(hi, n.Power)
		}
		if lo == hi {
			return
		}
		step := (hi - lo) / 5
		for i := range plat.Nodes {
			plat.Nodes[i].Power = lo + math.Round((plat.Nodes[i].Power-lo)/step)*step
		}
	case 3:
		for i := 1; i < len(plat.Nodes); i += 2 {
			plat.Nodes[i].Power = math.Nextafter(plat.Nodes[i-1].Power, math.Inf(1))
		}
	}
}

// fuzzRequest decodes raw fuzz inputs into a planning request over a
// scenario-family platform. ok is false for inputs outside the model's
// domain (they are skipped, not failures). linkSel's low two bits select
// the per-node link-bandwidth mutation and bit 4 its collision overlay
// (applyLinkPattern); bits 2–3 select the power mutation
// (applyPowerPattern), so the checked-in corpus keeps its meaning while new
// seeds reach the class boundaries.
func fuzzRequest(familyIdx, nRaw uint8, seed, wappMilli, demandMilli int64, bwSel, linkSel uint8) (core.Request, bool) {
	families := scenario.Families()
	spec := scenario.Spec{
		Family:    families[int(familyIdx)%len(families)],
		N:         2 + int(nRaw)%63,
		Bandwidth: []float64{10, 100, 1000}[int(bwSel)%3],
		Seed:      seed,
	}
	plat, err := spec.Generate()
	if err != nil {
		return core.Request{}, false
	}
	applyPowerPattern(plat, linkSel>>2)
	applyLinkPattern(plat, linkSel)
	wapp := float64(wappMilli) / 1000
	if wapp < 0 {
		wapp = -wapp
	}
	if wapp < 0.05 || wapp > 1e5 {
		return core.Request{}, false
	}
	var demand workload.Demand
	if demandMilli > 0 {
		demand = workload.Demand(float64(demandMilli) / 1000)
		if float64(demand) > 1e7 {
			return core.Request{}, false
		}
	}
	req := core.Request{
		Platform: plat,
		Costs:    model.DIETDefaults(),
		Wapp:     wapp,
		Demand:   demand,
	}
	return req, req.Validate() == nil
}

// FuzzPlanInvariants fuzzes the planner over every scenario family: any
// input that produces a valid request must satisfy the full invariant
// battery (plan validity, ρ = min law, star dominance, incremental-vs-
// naive evaluator agreement to 1e-9, swap-refiner monotonicity). The
// linkSel input mutates per-node link bandwidths, so the battery holds
// under heterogeneous links too.
func FuzzPlanInvariants(f *testing.F) {
	// One seed per family plus demand/bandwidth/Wapp/link corners; the
	// checked-in corpus under testdata/fuzz extends these.
	f.Add(uint8(0), uint8(10), int64(1), int64(59582), int64(0), uint8(1), uint8(0))
	f.Add(uint8(1), uint8(30), int64(2), int64(2000000), int64(0), uint8(0), uint8(1))
	f.Add(uint8(2), uint8(61), int64(3), int64(59582), int64(150000), uint8(2), uint8(2))
	f.Add(uint8(3), uint8(5), int64(4), int64(1333330), int64(0), uint8(1), uint8(3))
	f.Add(uint8(4), uint8(0), int64(5), int64(59582), int64(25000), uint8(1), uint8(0))
	f.Add(uint8(5), uint8(24), int64(6), int64(59582), int64(0), uint8(1), uint8(0))
	f.Add(uint8(6), uint8(40), int64(7), int64(1333330), int64(0), uint8(1), uint8(0))
	// Class-boundary seeds: homogenised, level-snapped (duplicated-spec),
	// and ±1-ulp near-duplicate power patterns (linkSel bits 2–3).
	f.Add(uint8(3), uint8(50), int64(8), int64(59582), int64(0), uint8(1), uint8(1<<2))
	f.Add(uint8(5), uint8(60), int64(9), int64(1333330), int64(0), uint8(0), uint8(2<<2|2))
	f.Add(uint8(2), uint8(33), int64(10), int64(59582), int64(40000), uint8(1), uint8(3<<2))
	// Sort-key collisions: the 8-node homogeneous pool with every other
	// node pinned explicitly to the default link (TestClassSortKeyCollision's
	// platform), and a level-snapped heterogeneous-link pool with the same
	// overlay.
	f.Add(uint8(1), uint8(6), int64(11), int64(2000000), int64(0), uint8(1), uint8(1<<4|1<<2))
	f.Add(uint8(5), uint8(45), int64(12), int64(2000000), int64(30000), uint8(1), uint8(1<<4|2<<2))
	f.Fuzz(func(t *testing.T, familyIdx, nRaw uint8, seed, wappMilli, demandMilli int64, bwSel, linkSel uint8) {
		req, ok := fuzzRequest(familyIdx, nRaw, seed, wappMilli, demandMilli, bwSel, linkSel)
		if !ok {
			t.Skip()
		}
		planInvariants(t, req, "fuzz")
	})
}

// TestPlanInvariantsAcrossCorpus is the deterministic table-driven twin of
// the fuzz target: the full scenario corpus at two workload sizes.
func TestPlanInvariantsAcrossCorpus(t *testing.T) {
	for _, spec := range scenario.Corpus(23) {
		plat, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, dgemm := range []int{100, 1000} {
			req := core.Request{
				Platform: plat,
				Costs:    model.DIETDefaults(),
				Wapp:     workload.DGEMM{N: dgemm}.MFlop(),
			}
			planInvariants(t, req, string(spec.Family))
		}
	}
}
