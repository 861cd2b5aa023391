package portfolio_test

import (
	"context"
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
	"adept/internal/portfolio"
	"adept/internal/scenario"
	"adept/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/portfolio_digests.json from the current portfolio output")

// portfolioDigest is the absolute pin on one portfolio answer: which
// variant won, the XML bytes, the predicted throughput bit for bit, and
// the deployment's size.
type portfolioDigest struct {
	Winner    string `json:"winner"`
	XMLSHA256 string `json:"xml_sha256"`
	RhoBits   string `json:"rho_bits"`
	NodesUsed int    `json:"nodes_used"`
}

// TestGoldenPortfolioDigests pins the portfolio's answer absolutely: every
// scenario family from the exhaustive variant's range (4, 6) through the
// paper's scale (25–400) to 1 000 nodes, two workloads, unbounded and
// under a demand of 50 and of 300 req/s. The unbounded rows were recorded
// while the variants still raced on goroutines and replayed untouched by
// the sequential fold; the demand-bounded rows are the fold's only (the
// race had no single answer there), so each is also checked against every
// member run alone. Regenerate with:
//
//	go test ./internal/portfolio -run TestGoldenPortfolioDigests -update
func TestGoldenPortfolioDigests(t *testing.T) {
	got := map[string]portfolioDigest{}
	pf := portfolio.New()
	for _, fam := range scenario.Families() {
		for _, n := range []int{4, 6, 25, 50, 100, 200, 400, 1000} {
			for _, dgemm := range []int{100, 1000} {
				base := corpusRequest(t, scenario.Spec{Family: fam, N: n, Seed: 7}, workload.DGEMM{N: dgemm}.MFlop())
				for _, demand := range []workload.Demand{0, 50, 300} {
					req := base
					req.Demand = demand
					mode := "unbounded"
					if demand.Bounded() {
						mode = fmt.Sprintf("demand%g", float64(demand))
					}
					label := fmt.Sprintf("%s/n%d/dgemm%d/%s", fam, n, dgemm, mode)
					plan, err := pf.PlanContext(context.Background(), req)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got[label] = digestOf(t, plan)
					if demand.Bounded() {
						assertDominatesMembers(t, label, req, plan)
					}
				}
			}
		}
	}

	path := filepath.Join("testdata", "portfolio_digests.json")
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
	var want map[string]portfolioDigest
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

// TestPortfolioRowsCanWin makes every row pay rent: each variant the
// portfolio reports must be the recorded winner of at least one
// portfolio_digests.json fixture: a row that never wins only costs time.
func TestPortfolioRowsCanWin(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "portfolio_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fixtures map[string]portfolioDigest
	if err := json.Unmarshal(data, &fixtures); err != nil {
		t.Fatal(err)
	}
	wins := map[string]int{}
	for _, d := range fixtures {
		wins[d.Winner]++
	}
	req := corpusRequest(t, scenario.Spec{Family: scenario.Bimodal, N: 4, Seed: 7}, workload.DGEMM{N: 100}.MFlop())
	_, stats, err := portfolio.New().PlanWithStats(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if wins["portfolio:"+st.Variant] == 0 {
			t.Errorf("row %q wins none of the %d recorded fixtures (winners: %v)", st.Variant, len(fixtures), wins)
		}
	}
}

func digestOf(t *testing.T, plan *core.Plan) portfolioDigest {
	t.Helper()
	xml, err := plan.XML()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(xml))
	return portfolioDigest{
		Winner:    plan.Planner,
		XMLSHA256: hex.EncodeToString(sum[:]),
		RhoBits:   fmt.Sprintf("%016x", math.Float64bits(plan.Eval.Rho)),
		NodesUsed: plan.NodesUsed,
	}
}
