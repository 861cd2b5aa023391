package baseline_test

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

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/scenario"
	"adept/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/baseline_digests.json from the current baseline output")

// baselineDigest is the absolute pin on one baseline plan: the XML bytes,
// the predicted throughput bit for bit, and the deployment's size.
type baselineDigest struct {
	XMLSHA256 string `json:"xml_sha256"`
	RhoBits   string `json:"rho_bits"`
	NodesUsed int    `json:"nodes_used"`
}

// TestGoldenBaselineDigests pins every comparison planner's answer
// absolutely: star, balanced, the d-ary search, the seeded random planner
// and (on 6 nodes, all it accepts in reasonable time) the exhaustive
// search, over every scenario family from the exhaustive range to 4 000
// nodes and two seeds. Each pool is planned twice, handed as a Platform
// alone and as Columns alone, and both must reproduce the recorded digest.
// Regenerate with:
//
//	go test ./internal/baseline -run TestGoldenBaselineDigests -update
func TestGoldenBaselineDigests(t *testing.T) {
	type row struct {
		name    string
		planner core.Planner
	}
	got := map[string]baselineDigest{}
	wapp := workload.DGEMM{N: 310}.MFlop()
	for _, fam := range scenario.Families() {
		for _, n := range []int{6, 25, 400, 4000} {
			for _, seed := range []int64{1, 2} {
				cols, err := scenario.Spec{Family: fam, N: n, Seed: seed}.Columns(t.Context(), nil)
				if err != nil {
					t.Fatal(err)
				}
				onPlatform := core.Request{Platform: cols.Platform(), Costs: model.DIETDefaults(), Wapp: wapp}
				onColumns := core.Request{Columns: cols, Costs: model.DIETDefaults(), Wapp: wapp}
				rows := []row{
					{"star", &baseline.Star{}},
					{"balanced", &baseline.Balanced{}},
					{"dary", &baseline.OptimalDAry{}},
					{"random", &baseline.Random{Seed: 1}},
				}
				if n <= 6 {
					rows = append(rows, row{"exhaustive", &baseline.Exhaustive{}})
				}
				for _, r := range rows {
					label := fmt.Sprintf("%s/n%d/s%d/%s", fam, n, seed, r.name)
					fromPlatform, err := r.planner.PlanContext(t.Context(), onPlatform)
					if err != nil {
						t.Fatalf("%s: platform: %v", label, err)
					}
					fromColumns, err := r.planner.PlanContext(t.Context(), onColumns)
					if err != nil {
						t.Fatalf("%s: columns: %v", label, err)
					}
					d := digestOf(t, fromPlatform)
					if c := digestOf(t, fromColumns); c != d {
						t.Errorf("%s: the two forms disagree:\n platform %+v\n columns  %+v", label, d, c)
					}
					got[label] = d
				}
			}
		}
	}

	path := filepath.Join("testdata", "baseline_digests.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	var want map[string]baselineDigest
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

func digestOf(t *testing.T, plan *core.Plan) baselineDigest {
	t.Helper()
	xml, err := plan.XML()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(xml))
	return baselineDigest{
		XMLSHA256: hex.EncodeToString(sum[:]),
		RhoBits:   fmt.Sprintf("%016x", math.Float64bits(plan.Eval.Rho)),
		NodesUsed: plan.NodesUsed,
	}
}
