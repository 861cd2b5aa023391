package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// refineDigest is the absolute pin on one heuristic+swap plan: the XML
// bytes, the predicted throughput bit for bit, and the deployment's size.
type refineDigest struct {
	XMLSHA256 string `json:"xml_sha256"`
	RhoBits   string `json:"rho_bits"`
	NodesUsed int    `json:"nodes_used"`
}

// TestGoldenRefinerDigests pins the swap refiner's own answer, whether or
// not the portfolio would pick it: the portfolio's corpus (every family,
// 4 to 1 000 nodes, DGEMM 100 and 1000, unbounded and under a demand of 50
// and of 300 req/s), the same at DGEMM 310, a slice quantised to four
// power levels — equal-spec candidates tie there, and the lowest column
// must win — and cluster-grid n=12 at DGEMM 310, the one fixture of a
// 2 240-fixture sweep on which re-backing an agent with an unused weaker
// node ever won a round (the refiner has no such move; that plan's ρ is
// the same without it). Each row is also classed by what the refiner did
// to Algorithm 1's plan, and every move family must show up somewhere: a
// corpus edit cannot silently stop exercising one. Regenerate with:
//
//	go test ./internal/core -run TestGoldenRefinerDigests -update
func TestGoldenRefinerDigests(t *testing.T) {
	got := map[string]refineDigest{}
	var drops, attaches, swaps int
	record := func(label string, spec scenario.Spec, dgemm int, demand workload.Demand) {
		plat, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: dgemm}.MFlop(), Demand: demand}
		alg1, err := core.NewHeuristic().PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("%s: heuristic: %v", label, err)
		}
		plan, err := (&core.SwapRefiner{}).PlanContext(t.Context(), req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		switch {
		case plan.NodesUsed < alg1.NodesUsed:
			drops++
		case plan.NodesUsed > alg1.NodesUsed:
			attaches++
		case plan.Capped > alg1.Capped:
			swaps++
		}
		sum := sha256.Sum256([]byte(mustXML(t, plan)))
		got[label] = refineDigest{
			XMLSHA256: hex.EncodeToString(sum[:]),
			RhoBits:   fmt.Sprintf("%016x", math.Float64bits(plan.Eval.Rho)),
			NodesUsed: plan.NodesUsed,
		}
	}
	for _, fam := range scenario.Families() {
		for _, n := range []int{4, 6, 25, 50, 100, 200, 400, 1000} {
			spec := scenario.Spec{Family: fam, N: n, Seed: 7}
			for _, dgemm := range []int{100, 310, 1000} {
				for _, demand := range []workload.Demand{0, 50, 300} {
					mode := "unbounded"
					if demand.Bounded() {
						mode = fmt.Sprintf("demand%g", float64(demand))
					}
					record(fmt.Sprintf("%s/n%d/dgemm%d/%s", fam, n, dgemm, mode), spec, dgemm, demand)
				}
				levels := spec
				levels.PowerLevels = 4
				record(fmt.Sprintf("%s/n%d/L4/dgemm%d/unbounded", fam, n, dgemm), levels, dgemm, 0)
			}
		}
	}
	record("cluster-grid/n12/dgemm310/unbounded", scenario.Spec{Family: scenario.ClusterGrid, N: 12, Seed: 7}, 310, 0)

	t.Logf("refined plans: %d with fewer nodes than Algorithm 1's, %d with more, %d of the same size with a higher capped rho", drops, attaches, swaps)
	if drops == 0 || attaches == 0 || swaps == 0 {
		t.Errorf("a move family went unexercised: %d drops, %d attaches, %d swaps", drops, attaches, swaps)
	}

	path := filepath.Join("testdata", "refine_digests.json")
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
	var want map[string]refineDigest
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
