package core_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// This file is the correctness battery for class-collapsed planning:
// differential tests pinning the planner over a class-built pool to the
// planner over a node-built pool across the whole scenario corpus,
// determinism tests across GOMAXPROCS settings, and a concurrency stress
// test racing PlanContext calls over one shared request. Both sides of
// the differential run the same code, so what it checks is that the pool's
// granularity is invisible; golden_test.go pins the plans themselves.
//
// ADEPT_CLASS_BATTERY=full (the CI race job) widens the corpus to
// thousand-node pools; the default keeps tier-1 `go test ./...` fast.

// classBatteryFull reports whether the heavy battery mode is enabled.
func classBatteryFull() bool { return os.Getenv("ADEPT_CLASS_BATTERY") == "full" }

func mustXML(t *testing.T, p *core.Plan) string {
	t.Helper()
	x, err := p.XML()
	if err != nil {
		t.Fatalf("xml: %v", err)
	}
	return x
}

// classVsNode plans req over a node-built and a class-built pool and
// asserts the differential contract: the class side always reports
// ClassPlanned with the pool's distinct-spec count, and the two plans are
// byte-identical, throughput bits and XML.
func classVsNode(t *testing.T, req core.Request, label string) {
	t.Helper()
	np, err := core.NewHeuristicNodeSpace().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("%s: node-space: %v", label, err)
	}
	cp, err := core.NewHeuristicClassSpace().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("%s: class-space: %v", label, err)
	}
	if np.ClassPlanned {
		t.Fatalf("%s: node-space planner reported ClassPlanned", label)
	}
	distinct := platform.DistinctSpecs(req.Platform.Nodes)
	if !cp.ClassPlanned || cp.PoolClasses != distinct {
		t.Errorf("%s: class-space planner reported ClassPlanned=%v PoolClasses=%d, want true and %d",
			label, cp.ClassPlanned, cp.PoolClasses, distinct)
	}
	if math.Float64bits(cp.Eval.Rho) != math.Float64bits(np.Eval.Rho) || math.Float64bits(cp.Capped) != math.Float64bits(np.Capped) {
		t.Errorf("%s: class rho/capped %.17g/%.17g != node %.17g/%.17g", label, cp.Eval.Rho, cp.Capped, np.Eval.Rho, np.Capped)
	}
	if nx, cx := mustXML(t, np), mustXML(t, cp); nx != cx {
		t.Errorf("%s: class-space XML differs from node-space (classes=%d)\nnode:\n%s\nclass:\n%s", label, distinct, nx, cx)
	}
}

// corpusVariants returns the spec plus its duplicated-spec (quantised) and
// homogeneous (single-level) variants — the three pool shapes the
// differential contract names.
func corpusVariants(spec scenario.Spec) []scenario.Spec {
	quant := spec
	quant.PowerLevels = 6
	quant.Name = fmt.Sprintf("%s-q6", spec.Family)
	homog := spec
	homog.PowerLevels = 1
	homog.Name = fmt.Sprintf("%s-q1", spec.Family)
	return []scenario.Spec{spec, quant, homog}
}

// TestClassVsNodeAcrossCorpus runs the class-vs-node differential over
// every scenario corpus family: the raw (usually all-distinct) pool, a
// 6-level quantised duplicated-spec pool, and a power-homogeneous pool.
func TestClassVsNodeAcrossCorpus(t *testing.T) {
	sizes := []int{4, 12, 40, 120}
	if classBatteryFull() {
		sizes = append(sizes, 600, 5000)
	}
	for _, spec := range scenario.Corpus(23, sizes...) {
		for _, v := range corpusVariants(spec) {
			plat, err := v.Generate()
			if err != nil {
				t.Fatal(err)
			}
			req := core.Request{
				Platform: plat,
				Costs:    model.DIETDefaults(),
				Wapp:     workload.DGEMM{N: 1000}.MFlop(),
			}
			label := fmt.Sprintf("%s/n%d/L%d", v.Family, v.N, v.PowerLevels)
			classVsNode(t, req, label)
		}
	}
}

// TestClassVsNodeUnderDemand repeats the differential with a binding client
// demand, which flips the planner into its demand-capped regimes (early
// stop, fewest-nodes preference, pair shortcut).
func TestClassVsNodeUnderDemand(t *testing.T) {
	for _, fam := range scenario.Families() {
		spec := scenario.Spec{Family: fam, N: 64, Seed: 91, PowerLevels: 4}
		plat, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, demand := range []float64{2, 50, 1e6} {
			req := core.Request{
				Platform: plat,
				Costs:    model.DIETDefaults(),
				Wapp:     workload.DGEMM{N: 600}.MFlop(),
				Demand:   workload.Demand(demand),
			}
			classVsNode(t, req, fmt.Sprintf("%s/demand%g", fam, demand))
		}
	}
}

// TestClassAutoThreshold pins the one pool-form rule, through the
// production planner and at its edges: a pool is class-planned from 4 096
// nodes (classMinNodes) when it has at most n/8 distinct specs
// (classMinCompression), and planned node by node otherwise.
func TestClassAutoThreshold(t *testing.T) {
	generate := func(spec scenario.Spec) *platform.Platform {
		p, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// cycle returns n nodes cycling over specs distinct powers, on the
	// platform's default link.
	cycle := func(n, specs int) *platform.Platform {
		p := &platform.Platform{Name: "form", Bandwidth: 100, Nodes: make([]platform.Node, n)}
		for i := range p.Nodes {
			p.Nodes[i] = platform.Node{Name: fmt.Sprintf("n%04d", i), Power: 100 + float64(i%specs)}
		}
		return p
	}
	for _, tc := range []struct {
		name         string
		plat         *platform.Platform
		classPlanned bool
	}{
		{"quantised/5000", generate(scenario.Spec{Family: scenario.ClusterGrid, N: 5000, Seed: 7, PowerLevels: 8}), true},
		{"all-distinct/5000", generate(scenario.Spec{Family: scenario.PowerLaw, N: 5000, Seed: 7}), false},
		{"quantised/120", generate(scenario.Spec{Family: scenario.ClusterGrid, N: 120, Seed: 7, PowerLevels: 8}), false},
		{"8-specs/4095", cycle(4095, 8), false},
		{"8-specs/4096", cycle(4096, 8), true},
		{"512-specs/4096", cycle(4096, 512), true},
		{"513-specs/4096", cycle(4096, 513), false},
	} {
		p, err := core.NewHeuristic().PlanContext(t.Context(), core.Request{
			Platform: tc.plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 1000}.MFlop(),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		distinct := platform.DistinctSpecs(tc.plat.Nodes)
		if p.ClassPlanned != tc.classPlanned {
			t.Errorf("%s: %d nodes over %d specs: ClassPlanned = %v, want %v", tc.name, len(tc.plat.Nodes), distinct, p.ClassPlanned, tc.classPlanned)
		}
		want := 0
		if tc.classPlanned {
			want = distinct
		}
		if p.PoolClasses != want {
			t.Errorf("%s: PoolClasses = %d, want %d", tc.name, p.PoolClasses, want)
		}
	}
}

// TestClassSortKeyCollisionPlansInClassSpace covers distinct spec classes
// with identical sort keys — same power, one on the raw platform default
// link and one pinned to it explicitly. sort_nodes interleaves their
// members by name, which the class-built pool reproduces with
// single-member runs: the plan stays class-planned and byte-identical to
// node space, on the minimal 8-node pool (full invariant battery) and on a
// 20 000-node fleet where auto mode must not drop to one run per node.
func TestClassSortKeyCollisionPlansInClassSpace(t *testing.T) {
	small := collidingPlatform()
	if platform.DistinctSpecs(small.Nodes) != 2 {
		t.Fatalf("expected 2 distinct specs, got %d", platform.DistinctSpecs(small.Nodes))
	}
	planInvariants(t, core.Request{Platform: small, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 1000}.MFlop()}, "collide/n8")

	fleet := collidingFleet(t)
	req := core.Request{Platform: fleet, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 1000}.MFlop()}
	classVsNode(t, req, "collide/fleet")
	ap, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !ap.ClassPlanned {
		t.Error("auto mode left class space on a colliding fleet")
	}
	np, err := core.NewHeuristicNodeSpace().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if mustXML(t, ap) != mustXML(t, np) {
		t.Error("auto-mode plan of the colliding fleet differs from the node-space plan")
	}
}

// specKey identifies a node spec for multiset comparison.
type specKey struct {
	name string
	p, b uint64
}

func specMultiset(nodes []platform.Node) []specKey {
	out := make([]specKey, len(nodes))
	for i, n := range nodes {
		out[i] = specKey{n.Name, math.Float64bits(n.Power), math.Float64bits(n.LinkBandwidth)}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].name != out[b].name {
			return out[a].name < out[b].name
		}
		if out[a].p != out[b].p {
			return out[a].p < out[b].p
		}
		return out[a].b < out[b].b
	})
	return out
}

// checkClassRoundTrip asserts expand(collapse(pool)) preserves the multiset
// of (name, power, link) specs. Shared with the fuzz battery.
func checkClassRoundTrip(t *testing.T, nodes []platform.Node, label string) {
	t.Helper()
	ix := core.BuildClassIndex(nodes)
	if ix.NumNodes() != len(nodes) {
		t.Errorf("%s: index holds %d nodes, pool has %d", label, ix.NumNodes(), len(nodes))
	}
	if want := platform.DistinctSpecs(nodes); ix.NumClasses() != want {
		t.Errorf("%s: index has %d classes, DistinctSpecs says %d", label, ix.NumClasses(), want)
	}
	expanded := ix.Expand()
	got, want := specMultiset(expanded), specMultiset(nodes)
	if len(got) != len(want) {
		t.Fatalf("%s: expand returned %d nodes, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: expand(collapse(pool)) lost spec %v (got %v)", label, want[i], got[i])
		}
	}
}

// TestClassIndexRoundTrip covers the corpus plus the class-boundary corner
// the fuzz seeds target: near-duplicate powers one ulp apart must land in
// distinct classes.
func TestClassIndexRoundTrip(t *testing.T) {
	for _, spec := range scenario.Corpus(41) {
		for _, v := range corpusVariants(spec) {
			plat, err := v.Generate()
			if err != nil {
				t.Fatal(err)
			}
			checkClassRoundTrip(t, plat.Nodes, fmt.Sprintf("%s/n%d/L%d", v.Family, v.N, v.PowerLevels))
		}
	}

	// ±1 ulp: bit-exact classing must keep the three specs apart.
	w := 400.0
	nodes := []platform.Node{
		{Name: "ulp-0", Power: w},
		{Name: "ulp-1", Power: math.Nextafter(w, math.Inf(1))},
		{Name: "ulp-2", Power: math.Nextafter(w, math.Inf(-1))},
		{Name: "ulp-3", Power: w},
	}
	checkClassRoundTrip(t, nodes, "ulp")
	if got := core.BuildClassIndex(nodes).NumClasses(); got != 3 {
		t.Errorf("ulp-apart powers collapsed to %d classes, want 3", got)
	}
}

// planFixed plans req at a fixed GOMAXPROCS setting and returns the XML.
func planFixed(t *testing.T, p core.Planner, req core.Request, procs int) string {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	plan, err := p.PlanContext(t.Context(), req)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	return mustXML(t, plan)
}

// TestDeterminismUnderGOMAXPROCS plans multi-thousand-node pools at
// GOMAXPROCS 1, 2 and 8 and asserts byte-identical XML: a plan is computed
// on one goroutine, so the setting must be invisible. Covers the node-space
// path (all-distinct powers, heterogeneous and uniform links: sort keys,
// best-star and pair scans over one run per node) and the class path.
func TestDeterminismUnderGOMAXPROCS(t *testing.T) {
	specs := []scenario.Spec{
		{Family: scenario.ClusterGrid, N: 5000, Seed: 11},                 // node space, het links
		{Family: scenario.PowerLaw, N: 4500, Seed: 12},                    // node space, uniform links
		{Family: scenario.ClusterGrid, N: 5000, Seed: 11, PowerLevels: 8}, // class space
	}
	for _, spec := range specs {
		plat, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 1000}.MFlop()}
		ref := planFixed(t, core.NewHeuristic(), req, 1)
		for _, procs := range []int{2, 8} {
			if got := planFixed(t, core.NewHeuristic(), req, procs); got != ref {
				t.Errorf("%s/n%d/L%d: GOMAXPROCS=%d XML differs from GOMAXPROCS=1",
					spec.Family, spec.N, spec.PowerLevels, procs)
			}
		}
	}
}

// TestConcurrentPlanContextStress races concurrent PlanContext calls over
// shared request state: every plan must be byte-identical to the
// sequential reference. Run under -race in the CI battery job, this is the
// probe that planning only reads the request it is handed.
func TestConcurrentPlanContextStress(t *testing.T) {
	workers, rounds := 8, 2
	if classBatteryFull() {
		rounds = 6
	}
	specs := []scenario.Spec{
		{Family: scenario.ClusterGrid, N: 4500, Seed: 17},
		{Family: scenario.ClusterGrid, N: 4500, Seed: 17, PowerLevels: 10},
	}
	for _, spec := range specs {
		plat, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 1000}.MFlop()}
		refPlan, err := core.NewHeuristic().PlanContext(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		ref := mustXML(t, refPlan)
		var wg sync.WaitGroup
		errs := make(chan error, workers*rounds)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
					if err != nil {
						errs <- err
						return
					}
					x, err := plan.XML()
					if err != nil {
						errs <- err
						return
					}
					if x != ref {
						errs <- fmt.Errorf("concurrent plan XML diverged from reference")
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s/L%d: %v", spec.Family, spec.PowerLevels, err)
		}
	}
}

// TestNodePoolScratchReuse plans node pools of several sizes and shapes
// under a context carrying a Scratch, each worker with its own going from
// one pool to the next, so every plan runs in memory an earlier plan of
// another size left behind: each plan must be byte-identical to its
// reference, planned with no Scratch. Under -race it is also the probe
// that workers with their own Scratch share nothing.
func TestNodePoolScratchReuse(t *testing.T) { scratchReuse(t, core.NewHeuristicNodeSpace) }

// TestClassPoolScratchReuse is TestNodePoolScratchReuse for class pools,
// which deal their order into the Scratch.
func TestClassPoolScratchReuse(t *testing.T) { scratchReuse(t, core.NewHeuristicClassSpace) }

func scratchReuse(t *testing.T, planner func() core.Planner) {
	specs := []scenario.Spec{
		{Family: scenario.PowerLaw, N: 4000, Seed: 7},
		{Family: scenario.Bimodal, N: 300, Seed: 8},
		{Family: scenario.ClusterGrid, N: 1500, Seed: 9},
		{Family: scenario.Clustered, N: 40, Seed: 10},
		{Family: scenario.FatTree, N: 5000, Seed: 11, PowerLevels: 8},
	}
	reqs := make([]core.Request, len(specs))
	refs := make([]string, len(specs))
	for i, spec := range specs {
		plat, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop()}
		plan, err := planner().PlanContext(t.Context(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = mustXML(t, plan)
	}
	workers, rounds := 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := core.ContextWithScratch(t.Context(), new(core.Scratch))
			for k := 0; k < rounds*len(specs); k++ {
				i := (w + k) % len(specs)
				plan, err := planner().PlanContext(ctx, reqs[i])
				if err != nil {
					errs <- err
					return
				}
				if x, err := plan.XML(); err != nil || x != refs[i] {
					errs <- fmt.Errorf("%s/n%d: plan differs from its reference (err %v)", specs[i].Family, specs[i].N, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
