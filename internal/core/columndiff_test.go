package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// This file is the differential battery for columnar planning: a scenario
// planned from its power and link columns (names minted only for the nodes
// the plan reaches, name order decided on integers) against the same
// scenario expanded into a platform and planned from its nodes (names are
// strings, order is string order). Both sides run the one planner in auto
// mode, so what the battery checks is that the form the pool arrives in is
// invisible: the same bytes of XML, the same throughput bits, the same
// granularity. classdiff_test.go holds the two granularities to each other
// and golden_test.go pins the plans themselves.

// columnsVsPlatform plans spec both ways under each demand and compares.
func columnsVsPlatform(t *testing.T, spec scenario.Spec, dgemm int, demands ...workload.Demand) *core.Plan {
	t.Helper()
	label := fmt.Sprintf("%s/n%d/s%d/L%d", spec.Family, spec.N, spec.Seed, spec.PowerLevels)
	cols, err := spec.Columns(context.Background(), nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	plat, err := spec.Generate()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var last *core.Plan
	for _, demand := range demands {
		req := core.Request{Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: dgemm}.MFlop(), Demand: demand}
		onColumns, onNodes := req, req
		onColumns.Columns, onNodes.Platform = cols, plat
		cp, err := core.NewHeuristic().PlanContext(t.Context(), onColumns)
		if err != nil {
			t.Fatalf("%s/demand%g: columns: %v", label, float64(demand), err)
		}
		np, err := core.NewHeuristic().PlanContext(t.Context(), onNodes)
		if err != nil {
			t.Fatalf("%s/demand%g: platform: %v", label, float64(demand), err)
		}
		for _, f := range []struct {
			name     string
			col, nod float64
		}{
			{"rho", cp.Eval.Rho, np.Eval.Rho}, {"sched", cp.Eval.Sched, np.Eval.Sched},
			{"service", cp.Eval.Service, np.Eval.Service}, {"capped", cp.Capped, np.Capped},
		} {
			if math.Float64bits(f.col) != math.Float64bits(f.nod) {
				t.Errorf("%s/demand%g: %s from columns %.17g, from the platform %.17g", label, float64(demand), f.name, f.col, f.nod)
			}
		}
		if cp.NodesUsed != np.NodesUsed || cp.ClassPlanned != np.ClassPlanned || cp.PoolClasses != np.PoolClasses {
			t.Errorf("%s/demand%g: columns plan used %d nodes (class planned %v, %d classes), the platform plan %d (%v, %d)",
				label, float64(demand), cp.NodesUsed, cp.ClassPlanned, cp.PoolClasses, np.NodesUsed, np.ClassPlanned, np.PoolClasses)
		}
		if cx, nx := sha256.Sum256([]byte(mustXML(t, cp))), sha256.Sum256([]byte(mustXML(t, np))); cx != nx {
			t.Errorf("%s/demand%g: XML from columns (sha256 %x) differs from XML from the platform (%x)", label, float64(demand), cx, nx)
		}
		last = cp
	}
	return last
}

// TestColumnsVsPlatformAcrossFamilies runs the differential over every
// family at sizes on both sides of the class floor (4 095 | 4 096) and of
// the name-width edge (9 999 | 10 001), at fleet scale, continuous and
// catalogue-quantised, unbounded and under a binding demand.
// ADEPT_CLASS_BATTERY=full adds the million-node pools.
func TestColumnsVsPlatformAcrossFamilies(t *testing.T) {
	sizes := []int{200, 4095, 4096, 9999, 10_001, 100_000}
	if classBatteryFull() {
		sizes = append(sizes, 1_000_000)
	}
	for _, fam := range scenario.Families() {
		for _, n := range sizes {
			for _, seed := range []int64{1, 77, 1 << 33} {
				for _, levels := range []int{0, 8, 20} {
					columnsVsPlatform(t, scenario.Spec{Family: fam, N: n, Seed: seed, PowerLevels: levels}, 1000, 0, 50)
				}
			}
		}
	}
}

// TestColumnsVsPlatformNameOrder aims the differential at the two places
// where a columnar pool must spend nodes in name order without holding a
// name, on pools wide enough that name order and index order disagree.
func TestColumnsVsPlatformNameOrder(t *testing.T) {
	// A cluster grid whose uplinks run at the platform bandwidth: every SKU
	// of the local cluster (raw link 0) shares its sort key with the same
	// SKU behind an explicit link of that value, so their members are
	// interleaved one by one in name order — "…-10000" between "…-1000" and
	// "…-1001".
	for _, n := range []int{12_000, 100_000} {
		collide := scenario.Spec{Family: scenario.ClusterGrid, N: n, Seed: 7, PowerLevels: 8, Bandwidth: 100, InterBandwidth: 100}
		if p := columnsVsPlatform(t, collide, 1000, 0, 50); !p.ClassPlanned {
			t.Errorf("colliding cluster grid of %d nodes left class space", n)
		}
	}
	// A hub and a sea of identical leaves under a service cost heavy enough
	// that the plan deploys the whole pool: at(i) walks every position, one
	// run of n-1 members drained through the name heap.
	star := scenario.Spec{Family: scenario.Star, N: 12_000, Seed: 1, PowerLevels: 8}
	if p := columnsVsPlatform(t, star, 3000, 0); p.NodesUsed != star.N || !p.ClassPlanned {
		t.Errorf("hub-dominated star deployed %d of %d nodes (class planned %v); the fixture no longer walks the whole pool",
			p.NodesUsed, star.N, p.ClassPlanned)
	}
}

// TestColumnsModesAgree: the granularity-pinned planners read a columnar
// pool too — pinned to nodes by ranking its indices, pinned to classes by
// indexing the columns whatever their size — and plan it as they plan its
// platform.
func TestColumnsModesAgree(t *testing.T) {
	spec := scenario.Spec{Family: scenario.FatTree, N: 300, Seed: 5, PowerLevels: 4}
	cols, err := spec.Columns(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Columns: cols, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 1000}.MFlop()}
	ref, err := core.NewHeuristic().PlanContext(t.Context(), core.Request{Platform: cols.Platform(), Costs: req.Costs, Wapp: req.Wapp})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range goldenModes {
		got, err := m.planner().PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if want := m.name == "class"; got.ClassPlanned != want {
			t.Errorf("%s planner on 300 columnar nodes: ClassPlanned=%v", m.name, got.ClassPlanned)
		}
		if mustXML(t, got) != mustXML(t, ref) {
			t.Errorf("%s planner's plan of the columns differs from the plan of their platform", m.name)
		}
	}
	// The swap refiner's move scans read the columns too.
	swap := &core.SwapRefiner{}
	got, err := swap.PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := swap.PlanContext(t.Context(), core.Request{Platform: cols.Platform(), Costs: req.Costs, Wapp: req.Wapp})
	if err != nil {
		t.Fatal(err)
	}
	if mustXML(t, got) != mustXML(t, want) {
		t.Error("the swap refiner's plan of the columns differs from its plan of their platform")
	}
}
