package portfolio_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/service"
	"adept/internal/workload"
)

// TestEveryPlannerReadsBothForms: every planner the daemon serves, and the
// seeded random planner, plans a pool handed as a Platform alone and the
// same pool handed as Columns alone to the same bytes of XML, the same
// throughput bits and the same node count — over every scenario family
// from the paper's scale to the registry's, on a 6-node pool, the only size
// the exhaustive search is asked to plan, and on a pool with names of its
// own whose powers tie. Generated names order as their indices do below
// 10 000 nodes; the tied pool's names ("n-9", "n-100", "n-10", ...) order
// differently as strings, as numbers and as listed, so only a planner that
// breaks power ties by Columns.NameLess plans its reversed listing alike.
func TestEveryPlannerReadsBothForms(t *testing.T) {
	var pools []*platform.Platform
	for _, fam := range scenario.Families() {
		for _, n := range []int{6, 25, 100, 400} {
			cols, err := scenario.Spec{Family: fam, N: n, Seed: 13}.Columns(t.Context(), nil)
			if err != nil {
				t.Fatal(err)
			}
			pools = append(pools, cols.Platform())
		}
	}
	tied := tiedNamePool()
	pools = append(pools, tied)
	names := append(service.PlannerNames(), "random")
	planners := map[string]core.Planner{"random": &baseline.Random{Seed: 1}}
	for _, name := range service.PlannerNames() {
		planner, err := service.SelectPlanner(name)
		if err != nil {
			t.Fatal(err)
		}
		planners[name] = planner
	}

	for _, plat := range pools {
		cols, err := plat.Columns()
		if err != nil {
			t.Fatal(err)
		}
		base := core.Request{Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop()}
		onPlatform, onColumns := base, base
		onPlatform.Platform, onColumns.Columns = plat, cols
		for _, name := range names {
			planner := planners[name]
			if name == "exhaustive" && cols.Len() > 6 {
				continue
			}
			label := fmt.Sprintf("%s/n%d/%s", plat.Name, cols.Len(), name)
			pp, err := planner.PlanContext(t.Context(), onPlatform)
			if err != nil {
				t.Fatalf("%s: platform: %v", label, err)
			}
			cp, err := planner.PlanContext(t.Context(), onColumns)
			if err != nil {
				t.Fatalf("%s: columns: %v", label, err)
			}
			if math.Float64bits(pp.Eval.Rho) != math.Float64bits(cp.Eval.Rho) || pp.NodesUsed != cp.NodesUsed {
				t.Errorf("%s: platform ρ %.17g on %d nodes, columns ρ %.17g on %d", label, pp.Eval.Rho, pp.NodesUsed, cp.Eval.Rho, cp.NodesUsed)
			}
			if px, cx := mustXML(t, pp), mustXML(t, cp); px != cx {
				t.Errorf("%s: XML differs between the two forms\nplatform:\n%s\ncolumns:\n%s", label, px, cx)
			}
		}
	}

	// The planners that rank the pool plan the tied pool the same way
	// whichever order it is listed in.
	reversed := &platform.Platform{Name: tied.Name, Bandwidth: tied.Bandwidth, Nodes: slices.Clone(tied.Nodes)}
	slices.Reverse(reversed.Nodes)
	for _, name := range []string{"heuristic", "star", "dary"} {
		req := core.Request{Platform: tied, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop()}
		want, err := planners[name].PlanContext(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		req.Platform = reversed
		got, err := planners[name].PlanContext(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		if wx, gx := mustXML(t, want), mustXML(t, got); wx != gx {
			t.Errorf("%s: the reversed listing plans differently\nlisted:\n%s\nreversed:\n%s", name, wx, gx)
		}
	}
}

// tiedNamePool is a pool with names of its own in three power tiers, each
// tier's names listed in an order that is neither their string order nor
// their numeric order.
func tiedNamePool() *platform.Platform {
	p := &platform.Platform{Name: "tied", Bandwidth: 100}
	tiers := []struct {
		power float64
		names []string
	}{
		{800, []string{"n-9", "n-100", "n-10", "n-1000", "n-2"}},
		{400, []string{"n-31", "n-3", "n-300", "n-30", "n-4", "n-40"}},
		{150, []string{"n-7", "n-70", "n-700", "n-5", "n-50", "n-500", "n-6"}},
	}
	for _, tier := range tiers {
		for _, name := range tier.names {
			p.Nodes = append(p.Nodes, platform.Node{Name: name, Power: tier.power})
		}
	}
	return p
}

func mustXML(t *testing.T, p *core.Plan) string {
	t.Helper()
	x, err := p.XML()
	if err != nil {
		t.Fatal(err)
	}
	return x
}
