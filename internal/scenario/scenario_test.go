package scenario_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"adept/internal/scenario"
)

// TestGenerateValidAcrossCorpus checks every corpus spec expands into a
// valid platform of the requested size.
func TestGenerateValidAcrossCorpus(t *testing.T) {
	specs := scenario.Corpus(1)
	if want := len(scenario.Families()) * 4; len(specs) != want {
		t.Fatalf("corpus has %d specs, want %d", len(specs), want)
	}
	seenFamily := map[scenario.Family]bool{}
	for _, spec := range specs {
		p, err := spec.Generate()
		if err != nil {
			t.Fatalf("%s n=%d: %v", spec.Family, spec.N, err)
		}
		if len(p.Nodes) != spec.N {
			t.Errorf("%s: %d nodes, want %d", spec.Family, len(p.Nodes), spec.N)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid platform: %v", spec.Family, err)
		}
		seenFamily[spec.Family] = true
	}
	for _, f := range scenario.Families() {
		if !seenFamily[f] {
			t.Errorf("family %s missing from corpus", f)
		}
	}
}

// TestGenerateDeterministicAcrossGoroutines requires byte-identical output
// for the same spec regardless of run or concurrency: the corpus seeds the
// fuzz harness and the golden benchmarks, so any ordering or shared-state
// nondeterminism here would poison both.
func TestGenerateDeterministicAcrossGoroutines(t *testing.T) {
	for _, spec := range scenario.Corpus(7, 3, 64) {
		spec := spec
		t.Run(string(spec.Family), func(t *testing.T) {
			t.Parallel()
			ref, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			refJSON, err := ref.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			const workers = 8
			got := make([][]byte, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					p, err := spec.Generate()
					if err != nil {
						return
					}
					got[w], _ = p.MarshalIndent()
				}(w)
			}
			wg.Wait()
			for w, g := range got {
				if !bytes.Equal(g, refJSON) {
					t.Errorf("goroutine %d produced different platform bytes", w)
				}
			}
		})
	}
}

// TestSpecErrors covers the rejection paths.
func TestSpecErrors(t *testing.T) {
	if _, err := (scenario.Spec{Family: scenario.Star, N: 1, Seed: 1}).Generate(); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := (scenario.Spec{Family: "warped", N: 4, Seed: 1}).Generate(); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := (scenario.Spec{Family: scenario.Star, N: 4, Seed: 1, Bandwidth: -1}).Generate(); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := (scenario.Spec{Family: scenario.TracePerturbed, N: 50, Seed: 1, LoadFraction: 2}).Generate(); err == nil {
		t.Error("load fraction 2 accepted")
	}
	if _, err := (scenario.Spec{Family: scenario.ClusterGrid, N: 12, Seed: 1, InterBandwidth: -4}).Generate(); err == nil {
		t.Error("negative inter-cluster bandwidth accepted")
	}
}

// TestFamilyShapes spot-checks each family produces its advertised shape.
func TestFamilyShapes(t *testing.T) {
	star, err := (scenario.Spec{Family: scenario.Star, N: 50, Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	hub := star.Nodes[0].Power
	for _, n := range star.Nodes[1:] {
		if n.Power >= hub/2 {
			t.Fatalf("star leaf %g not well below hub %g", n.Power, hub)
		}
	}

	bim, err := (scenario.Spec{Family: scenario.Bimodal, N: 40, Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 0, 0
	for _, n := range bim.Nodes {
		if n.Power > 600 {
			hi++
		} else {
			lo++
		}
	}
	if lo == 0 || hi == 0 {
		t.Errorf("bimodal degenerate: lo=%d hi=%d", lo, hi)
	}

	pl, err := (scenario.Spec{Family: scenario.PowerLaw, N: 200, Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	sum, max := 0.0, 0.0
	for _, n := range pl.Nodes {
		sum += n.Power
		if n.Power > max {
			max = n.Power
		}
	}
	if mean := sum / 200; max < 4*mean {
		t.Errorf("power-law tail too thin: max=%g mean=%g", max, mean)
	}

	tr, err := (scenario.Spec{Family: scenario.TracePerturbed, N: 100, Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	near := func(w, c float64) bool { return w > 0.9*c && w < 1.1*c }
	counts := map[string]int{}
	for _, n := range tr.Nodes {
		switch {
		case near(n.Power, 400):
			counts["full"]++
		case near(n.Power, 300), near(n.Power, 200), near(n.Power, 100):
			counts["loaded"]++
		}
	}
	if counts["full"] == 0 || counts["loaded"] == 0 {
		t.Errorf("trace-perturbed missing load classes: %v", counts)
	}
}

// TestHeterogeneousLinkFamilies covers the two link-heterogeneous
// families: determinism, link assignment shape, and their presence in the
// shared corpus.
func TestHeterogeneousLinkFamilies(t *testing.T) {
	cg, err := (scenario.Spec{Family: scenario.ClusterGrid, N: 40, Seed: 5}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := cg.LinkRange(); lo == hi {
		t.Error("cluster-grid generated uniform links")
	}
	interBW := cg.Bandwidth / 10
	for i, n := range cg.Nodes {
		want := 0.0 // cluster 0: inherit the platform default
		if i%4 != 0 {
			want = interBW
		}
		if n.LinkBandwidth != want {
			t.Errorf("cluster-grid node %d: link %g, want %g", i, n.LinkBandwidth, want)
		}
	}
	// An inverted grid — an uplink faster than the local site — is
	// accepted and shows in String() as the link spread.
	inv, err := (scenario.Spec{Family: scenario.ClusterGrid, N: 12, Seed: 3, Bandwidth: 10, InterBandwidth: 1000}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if s := inv.String(); !strings.Contains(s, "links [10, 1000]") {
		t.Errorf("inverted grid String() hides the spread: %s", s)
	}

	ft, err := (scenario.Spec{Family: scenario.FatTree, N: 40, Seed: 5}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := ft.LinkRange(); lo == hi {
		t.Error("fat-tree generated uniform links")
	}
	// Links taper monotonically with node index (core first, leaves last)
	// and halve tier by tier.
	seen := map[float64]bool{}
	prev := ft.Bandwidth + 1
	for i, n := range ft.Nodes {
		bw := n.Link(ft.Bandwidth)
		if bw > prev {
			t.Errorf("fat-tree node %d: link %g rises above previous %g", i, bw, prev)
		}
		prev = bw
		seen[bw] = true
	}
	if len(seen) != 3 {
		t.Errorf("fat-tree with 3 tiers produced %d link classes: %v", len(seen), seen)
	}

	// Determinism: byte-identical JSON across calls.
	for _, fam := range []scenario.Family{scenario.ClusterGrid, scenario.FatTree} {
		a, err := (scenario.Spec{Family: fam, N: 24, Seed: 11}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		b, err := (scenario.Spec{Family: fam, N: 24, Seed: 11}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := a.MarshalIndent()
		bj, _ := b.MarshalIndent()
		if string(aj) != string(bj) {
			t.Errorf("%s: generation not deterministic", fam)
		}
	}

	// The corpus now spans the heterogeneous families too.
	found := map[scenario.Family]bool{}
	for _, spec := range scenario.Corpus(1) {
		found[spec.Family] = true
	}
	if !found[scenario.ClusterGrid] || !found[scenario.FatTree] {
		t.Errorf("corpus missing heterogeneous families: %v", found)
	}
}
