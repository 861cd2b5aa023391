package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"adept/internal/platform"
	"adept/internal/service"
)

func mustStream(t *testing.T, name string, seed int64) *stream {
	t.Helper()
	s, err := newStream(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("digests a thousand ops per workload")
	}
	for _, name := range workloadNames() {
		a := mustStream(t, name, 3).describe()
		b := mustStream(t, name, 3).describe()
		c := mustStream(t, name, 4).describe()
		if a.StreamSHA256 != b.StreamSHA256 {
			t.Errorf("%s: the same seed gave two different streams", name)
		}
		if a.StreamSHA256 == c.StreamSHA256 {
			t.Errorf("%s: seeds 3 and 4 gave the same stream", name)
		}
	}
	if _, err := newStream("no_such_workload", 1); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// Op i is a function of (workload, seed, i) alone: not of which ops were
// generated before it, nor of whether it came through the producer.
func TestOpIndependentOfHistory(t *testing.T) {
	same := func(a, b op) bool {
		return a.kind == b.kind && a.path == b.path && a.id == b.id && a.prevID == b.prevID &&
			a.expect == b.expect && bytes.Equal(a.payload(), b.payload())
	}
	for _, name := range workloadNames() {
		fwd, bwd := mustStream(t, name, 9), mustStream(t, name, 9)
		const n = 60
		got := make([]op, n)
		for i := 0; i < n; i++ {
			got[i] = fwd.gen(i)
		}
		for i := n - 1; i >= 0; i -= 7 {
			if !same(got[i], bwd.gen(i)) {
				t.Errorf("%s: op %d depends on what was generated before it", name, i)
			}
		}
	}
	// mix_small's producer hands the same ops out in index order.
	fed := mustStream(t, mixSmall, 9)
	stop := fed.startFeed(context.Background())
	r := newRunner(fed, newHostClock(), nil)
	for i := 0; i < 10; i++ {
		if o, ok := r.nextOp(); !ok || !same(o, fed.gen(i)) {
			t.Errorf("mix_small: fed op %d differs from the generated one", i)
		}
	}
	stop()
	for range fed.feed { // what was ready; the loop ends because stop closed the feed
	}
}

func TestMixSmallShape(t *testing.T) {
	s := mustStream(t, mixSmall, 1)
	if len(s.prime) != hotSetSize {
		t.Fatalf("%d priming ops, want %d", len(s.prime), hotSetSize)
	}
	const n = 4000
	hot, portfolio := 0, 0
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		o := s.gen(i)
		if o.expect == expectEither {
			hot++
		}
		seen[o.id]++
		if bytes.Contains(o.body, []byte(`"portfolio":true`)) {
			portfolio++
		}
	}
	if share := float64(hot) / n; math.Abs(share-hotShare) > 0.03 {
		t.Errorf("hot share %.3f, want %.2f ± 0.03", share, hotShare)
	}
	if share := float64(portfolio) / n; math.Abs(share-0.15) > 0.05 {
		t.Errorf("portfolio share %.3f, want 0.15 ± 0.05", share)
	}
	// Zipf: the most popular hot body is requested far more often than
	// the median one, and no miss id repeats.
	top, misses := 0, 0
	for id, c := range seen {
		if id[:3] == "new" {
			misses++
			if c != 1 {
				t.Errorf("miss %s recurs %d times", id, c)
			}
		} else if c > top {
			top = c
		}
	}
	if top < 4*n/hotSetSize {
		t.Errorf("most popular hot body requested %d times of %d: not Zipf-skewed", top, n)
	}
	if misses != n-hot {
		t.Errorf("%d distinct misses, want %d", misses, n-hot)
	}
}

func TestChurnCycle(t *testing.T) {
	s := mustStream(t, replanChurn, 1)
	if s.group != churnCycle {
		t.Fatalf("replan_churn must run in groups of %d", churnCycle)
	}
	// version[name] as the stream implies it; every hit must name the
	// version its platform is at, every PUT the next one.
	version := map[string]int{}
	for i := 0; i < 40*churnCycle; i++ {
		o := s.gen(i)
		step := i % churnCycle
		var k int
		if _, err := fmt.Sscanf(o.target, "churn-%d", &k); err != nil || k < 0 || k >= churnNames {
			t.Fatalf("op %d: target %q", i, o.target)
		}
		switch {
		case step == 0:
			if o.kind != opPut || o.gen != version[o.target]+1 {
				t.Fatalf("op %d: want PUT of version %d of %s, got kind %d gen %d", i, version[o.target]+1, o.target, o.kind, o.gen)
			}
			version[o.target] = o.gen
		case step == 1:
			if o.expect != expectMiss || o.id != churnID(k, version[o.target]) || o.prevID != churnID(k, version[o.target]-1) {
				t.Fatalf("op %d: the plan after a PUT must be a miss on the new version (id %s prev %s)", i, o.id, o.prevID)
			}
		default:
			if o.expect != expectHit || o.id != churnID(k, version[o.target]) {
				t.Fatalf("op %d: want a hit on %s, got id %s expect %d", i, churnID(k, version[o.target]), o.id, o.expect)
			}
		}
	}
	// Every name is rewritten once per round of churnNames cycles.
	for k := 0; k < churnNames; k++ {
		if version[churnName(k)] != 40/churnNames {
			t.Errorf("%s is at version %d after 40 cycles, want %d", churnName(k), version[churnName(k)], 40/churnNames)
		}
	}
}

func TestPutTemplate(t *testing.T) {
	s := mustStream(t, replanChurn, 5)
	tmpl := s.prime[0].tmpl
	base, err := platform.ParseJSON(tmpl.render(0))
	if err != nil {
		t.Fatalf("version 0 does not parse: %v", err)
	}
	if len(base.Nodes) != churnNodes {
		t.Fatalf("%d nodes, want %d", len(base.Nodes), churnNodes)
	}
	for i, n := range base.Nodes {
		if math.Abs(n.Power-tmpl.base[i]) > 1e-4 {
			t.Fatalf("node %d: power %g, template base %g", i, n.Power, tmpl.base[i])
		}
	}
	v1, err := platform.ParseJSON(tmpl.render(1))
	if err != nil {
		t.Fatalf("version 1 does not parse: %v", err)
	}
	changed := 0
	for i := range v1.Nodes {
		if v1.Nodes[i].Name != base.Nodes[i].Name {
			t.Fatalf("node %d renamed", i)
		}
		if v1.Nodes[i].Power != base.Nodes[i].Power {
			changed++
			if r := v1.Nodes[i].Power / base.Nodes[i].Power; r < 0.9-1e-6 || r > 1.1+1e-6 {
				t.Errorf("node %d: power moved by a factor %g, want within ±10%%", i, r)
			}
		}
	}
	if changed == 0 || changed > churnNodes/20 {
		t.Errorf("%d powers perturbed, want 1..%d", changed, churnNodes/20)
	}
	if !bytes.Equal(tmpl.render(1), tmpl.render(1)) || bytes.Equal(tmpl.render(1), tmpl.render(2)) {
		t.Error("a version must depend on its number alone, and differ from the next")
	}
}

func TestRhoOps(t *testing.T) {
	for name, want := range map[string]int{fleetCold: rhoSample, fleetHit: 4, mixSmall: rhoSample, replanChurn: rhoSample} {
		ops := mustStream(t, name, 2).rhoOps()
		if len(ops) != want {
			t.Errorf("%s: %d distinct plan requests, want %d", name, len(ops), want)
		}
		seen := map[string]bool{}
		for _, o := range ops {
			if o.kind != opPlan || seen[o.id] {
				t.Errorf("%s: %s is not a plan or repeats", name, o.id)
			}
			seen[o.id] = true
		}
	}
	// mix_small's sample has the same shapes on every seed: only the
	// platforms drawn differ, so rho_geomean compares like with like.
	a, b := mustStream(t, mixSmall, 2).rhoOps(), mustStream(t, mixSmall, 3).rhoOps()
	for i := range a {
		var pa, pb service.PlanRequest
		if json.Unmarshal(a[i].body, &pa) != nil || json.Unmarshal(b[i].body, &pb) != nil {
			t.Fatal("undecodable body")
		}
		if len(pa.Platform.Nodes) != len(pb.Platform.Nodes) || pa.Portfolio != pb.Portfolio || bytes.Equal(a[i].body, b[i].body) {
			t.Errorf("sample %d: seeds 2 and 3 must give the same shape and different platforms", i)
		}
	}
}

func TestTraceBody(t *testing.T) {
	body := traceBody([]byte(`{"platform_name":"churn-0"}`))
	var pr service.PlanRequest
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Trace || pr.PlatformName != "churn-0" {
		t.Errorf("traced body decodes to %+v", pr)
	}
}
