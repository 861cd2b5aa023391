package baseline_test

import (
	"fmt"
	"math/rand"
	"testing"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// paperGap is the optimality margin the test enforces: Table 4 of the
// paper observes the heuristic as low as ~82% of the best-known deployment
// in its worst mid-size rows and optimal at the extremes, so a 20% gap is
// the paper's own observed envelope. The swap-refined heuristic is held to
// that bound against the exhaustive ground truth (measured worst on this
// sweep: ~0.83, a two-level split the flat star plus local moves cannot
// express); the plain heuristic legitimately falls further behind on tiny
// heterogeneous pools (it must draft the most powerful node as the root
// agent even when that node would serve better) — the swap and drop moves
// exist to close exactly that. The portfolio planner closes the remainder:
// internal/portfolio's tests pin it to the exhaustive optimum on these
// pools.
const paperGap = 0.20

// gapPlatforms enumerates every (family, size, seed) platform the gap
// sweep covers: all scenario families plus uniform-random and homogeneous
// pools, sizes 2 through 6 — small enough for the exhaustive optimum.
func gapPlatforms(t *testing.T) []*platform.Platform {
	t.Helper()
	var out []*platform.Platform
	for n := 2; n <= 6; n++ {
		for seed := int64(1); seed <= 4; seed++ {
			for _, fam := range scenario.Families() {
				p, err := scenario.Spec{Family: fam, N: n, Seed: seed * 101}.Generate()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, p)
			}
			// A uniform draw over [20, 2000).
			uni := &platform.Platform{Name: "uni", Bandwidth: 100}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				uni.Nodes = append(uni.Nodes, platform.Node{Name: fmt.Sprintf("uni-%03d", i), Power: 20 + rng.Float64()*1980})
			}
			out = append(out, uni)
			out = append(out, platform.Homogeneous("homo", n, 400, 100))
		}
	}
	return out
}

// TestHeuristicOptimalityGap holds the swap-refined heuristic within the
// paper's observed gap of the exhaustive optimum on every enumerated small
// platform. On failure the offending platform is dumped as JSON so the
// case can be replayed exactly.
func TestHeuristicOptimalityGap(t *testing.T) {
	refined := &core.SwapRefiner{}
	exhaustive := &baseline.Exhaustive{}
	wapps := []float64{workload.DGEMM{N: 10}.MFlop(), workload.DGEMM{N: 100}.MFlop(), workload.DGEMM{N: 310}.MFlop()}
	worst := 1.0
	for _, plat := range gapPlatforms(t) {
		for _, wapp := range wapps {
			req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: wapp}
			opt, err := exhaustive.PlanContext(t.Context(), req)
			if err != nil {
				t.Fatalf("%s: exhaustive: %v", plat.Name, err)
			}
			got, err := refined.PlanContext(t.Context(), req)
			if err != nil {
				t.Fatalf("%s: refined heuristic: %v", plat.Name, err)
			}
			ratio := got.Eval.Rho / opt.Eval.Rho
			if ratio < worst {
				worst = ratio
			}
			if ratio < 1-paperGap {
				data, _ := plat.MarshalIndent()
				t.Errorf("refined heuristic at %.1f%% of optimum (rho %.4f vs %.4f, wapp %.1f) on platform:\n%s",
					100*ratio, got.Eval.Rho, opt.Eval.Rho, wapp, data)
			}
		}
	}
	t.Logf("worst refined-heuristic/exhaustive ratio: %.4f over %d platforms x %d workloads",
		worst, len(gapPlatforms(t)), len(wapps))
}

// TestExhaustiveIsAnUpperBound: no baseline may beat the exhaustive
// optimum on the pools it can enumerate — the ground truth of the gap
// sweep must actually be the ground truth.
func TestExhaustiveIsAnUpperBound(t *testing.T) {
	exhaustive := &baseline.Exhaustive{}
	wapp := workload.DGEMM{N: 100}.MFlop()
	for _, plat := range gapPlatforms(t)[:20] {
		req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: wapp}
		opt, err := exhaustive.PlanContext(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range []core.Planner{&baseline.Star{}, &baseline.Balanced{}, &baseline.OptimalDAry{}} {
			bp, err := pl.PlanContext(t.Context(), req)
			if err != nil {
				t.Fatalf("%s: %v", pl.Name(), err)
			}
			if bp.Eval.Rho > opt.Eval.Rho*(1+1e-9) {
				t.Errorf("%s beats the exhaustive optimum on %s: %.6f > %.6f", pl.Name(), plat.Name, bp.Eval.Rho, opt.Eval.Rho)
			}
		}
	}
}
