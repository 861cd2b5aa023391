package portfolio_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/scenario"
	"adept/internal/service"
	"adept/internal/workload"
)

// TestEveryPlannerReadsBothForms: every planner the daemon serves plans a
// pool handed as a Platform alone and the same pool handed as Columns alone
// to the same bytes of XML, the same throughput bits and the same node
// count — over every scenario family from the paper's scale to the
// registry's, and on a 6-node pool, the only size the exhaustive search is
// asked to plan.
func TestEveryPlannerReadsBothForms(t *testing.T) {
	for _, fam := range scenario.Families() {
		for _, n := range []int{6, 25, 100, 400} {
			cols, err := scenario.Spec{Family: fam, N: n, Seed: 13}.Columns(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			base := core.Request{Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop()}
			onPlatform, onColumns := base, base
			onPlatform.Platform, onColumns.Columns = cols.Platform(), cols
			for _, name := range service.PlannerNames() {
				if name == "exhaustive" && n > 6 {
					continue
				}
				label := fmt.Sprintf("%s/n%d/%s", fam, n, name)
				planner, err := service.SelectPlanner(name)
				if err != nil {
					t.Fatal(err)
				}
				pp, err := planner.Plan(onPlatform)
				if err != nil {
					t.Fatalf("%s: platform: %v", label, err)
				}
				cp, err := planner.Plan(onColumns)
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
	}
}

func mustXML(t *testing.T, p *core.Plan) string {
	t.Helper()
	x, err := p.XML()
	if err != nil {
		t.Fatal(err)
	}
	return x
}
