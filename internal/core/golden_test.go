package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/plan_digests.json from the current planner output")

// planDigest is the absolute pin on one plan: the XML bytes, the predicted
// throughput bit for bit, and which granularity planned it.
type planDigest struct {
	XMLSHA256    string `json:"xml_sha256"`
	RhoBits      string `json:"rho_bits"`
	ClassPlanned bool   `json:"class_planned,omitempty"`
}

// collidingPlatform is the smallest pool on which two distinct spec classes
// share a sort key: same power, one class on the raw platform default link
// and one pinned to it explicitly.
func collidingPlatform() *platform.Platform {
	plat := &platform.Platform{Name: "collide", Bandwidth: 100}
	for i := 0; i < 8; i++ {
		n := platform.Node{Name: fmt.Sprintf("collide-%02d", i), Power: 400}
		if i%2 == 1 {
			n.LinkBandwidth = 100 // explicit override equal to the default
		}
		plat.Nodes = append(plat.Nodes, n)
	}
	return plat
}

// collidingFleet is a 20 000-node catalogue fleet in which one SKU of the
// local cluster is listed both with the default link (raw 0) and with an
// explicit override equal to it: an inventory quirk that puts two spec
// classes on one sort key in the middle of a pool that must still plan in
// O(classes).
func collidingFleet(t *testing.T) *platform.Platform {
	t.Helper()
	plat, err := scenario.Spec{Family: scenario.ClusterGrid, N: 20000, Seed: 7, PowerLevels: 8}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sku, flip := -1.0, false
	for i := range plat.Nodes {
		n := &plat.Nodes[i]
		if n.LinkBandwidth != 0 {
			continue
		}
		if sku < 0 {
			sku = n.Power
		}
		if n.Power == sku {
			if flip {
				n.LinkBandwidth = plat.Bandwidth
			}
			flip = !flip
		}
	}
	return plat
}

// goldenModes are the three ways a pool's granularity gets chosen.
var goldenModes = []struct {
	name    string
	planner func() *core.Heuristic
}{
	{"auto", core.NewHeuristic},
	{"node", core.NewHeuristicNodeSpace},
	{"class", core.NewHeuristicClassSpace},
}

// TestGoldenPlanDigests pins the planner's output absolutely: every
// scenario family at the paper's scale (25), the registry scale (400,
// 4000) and fleet scale (20 000), continuous and catalogue-quantised
// powers, with and without a binding client demand, planned at each
// granularity. The class-vs-node differential compares the planner with
// itself, so only a recorded digest catches a defect common to both
// granularities. Regenerate with:
//
//	go test ./internal/core -run TestGoldenPlanDigests -update
func TestGoldenPlanDigests(t *testing.T) {
	got := map[string]planDigest{}
	wins := map[string]int{}
	record := func(label string, plat *platform.Platform, demand workload.Demand) {
		req := core.Request{
			Platform: plat,
			Costs:    model.DIETDefaults(),
			Wapp:     workload.DGEMM{N: 1000}.MFlop(),
			Demand:   demand,
		}
		for _, m := range goldenModes {
			tr := obs.NewTraceRecorder()
			plan, err := m.planner().PlanContext(obs.ContextWithTrace(t.Context(), tr), req)
			if err != nil {
				t.Fatalf("%s/%s: %v", label, m.name, err)
			}
			wins[checkTraceShape(t, label+"/"+m.name, tr.Trace())]++
			sum := sha256.Sum256([]byte(mustXML(t, plan)))
			got[label+"/"+m.name] = planDigest{
				XMLSHA256:    hex.EncodeToString(sum[:]),
				RhoBits:      fmt.Sprintf("%016x", math.Float64bits(plan.Eval.Rho)),
				ClassPlanned: plan.ClassPlanned,
			}
		}
	}
	// both records the platform unbounded and under a demand that binds
	// well inside the pool (a twentieth of a request per second per node).
	both := func(label string, plat *platform.Platform) {
		record(label+"/unbounded", plat, 0)
		record(label+"/bounded", plat, workload.Demand(0.05*float64(len(plat.Nodes))))
	}
	for _, fam := range scenario.Families() {
		for _, n := range []int{25, 400, 4000, 20000} {
			for _, levels := range []int{0, 8} {
				plat, err := scenario.Spec{Family: fam, N: n, Seed: 31, PowerLevels: levels}.Generate()
				if err != nil {
					t.Fatal(err)
				}
				both(fmt.Sprintf("%s/n%d/L%d", fam, n, levels), plat)
			}
		}
	}
	both("collide/n8", collidingPlatform())
	both("collide/fleet", collidingFleet(t))

	// Both sides of the trace-shape check must have been seen.
	t.Logf("snapshot kinds planned: %v", wins)
	if wins["grown"] == 0 || len(wins) < 2 {
		t.Errorf("snapshot kinds planned: %v; want grown answers and others", wins)
	}

	path := filepath.Join("testdata", "plan_digests.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want map[string]planDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("planned %d fixtures, golden file holds %d (run with -update after reviewing)", len(got), len(want))
	}
	for label, g := range got {
		if w, ok := want[label]; !ok {
			t.Errorf("%s: no recorded digest", label)
		} else if g != w {
			t.Errorf("%s drifted from golden:\n got  %+v\n want %+v", label, g, w)
		}
	}
}

// checkTraceShape holds a plan's trace to the planner's one build: a
// replay phase — building the grown answer from its op-log prefix — appears
// exactly when the grown answer won. It returns the winning snapshot kind.
func checkTraceShape(t *testing.T, label string, tr *obs.PlanTrace) string {
	t.Helper()
	win := tr.Attrs["snapshot_win"]
	switch win {
	case "grown", "star", "pair", "seed":
	default:
		t.Errorf("%s: snapshot_win %q", label, win)
	}
	replay := 0
	for _, p := range tr.Phases {
		if p.Name == "replay" {
			replay++
		}
	}
	want := 0
	if win == "grown" {
		want = 1
	}
	if replay != want {
		t.Errorf("%s: %d replay phases for a %q answer, want %d", label, replay, win, want)
	}
	return win
}
