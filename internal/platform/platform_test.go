package platform_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"adept/internal/platform"
)

func TestHomogeneous(t *testing.T) {
	p := platform.Homogeneous("c", 5, 400, 100)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if platform.DistinctSpecs(p.Nodes) != 1 {
		t.Error("homogeneous platform has more than one node spec")
	}
	if ws := p.Powers(); len(ws) != 5 || ws[0] != 400 {
		t.Errorf("Powers = %v, want five of 400", ws)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		p    platform.Platform
	}{
		{"zero bandwidth", platform.Platform{Name: "x", Bandwidth: 0, Nodes: []platform.Node{{Name: "a", Power: 1}}}},
		{"no nodes", platform.Platform{Name: "x", Bandwidth: 1}},
		{"empty node name", platform.Platform{Name: "x", Bandwidth: 1, Nodes: []platform.Node{{Name: "", Power: 1}}}},
		{"zero power", platform.Platform{Name: "x", Bandwidth: 1, Nodes: []platform.Node{{Name: "a", Power: 0}}}},
		{"duplicate names", platform.Platform{Name: "x", Bandwidth: 1, Nodes: []platform.Node{{Name: "a", Power: 1}, {Name: "a", Power: 2}}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// In a large pool, the repeat reported is the one whose second
	// occurrence comes first, wherever the first occurrences are.
	for _, tc := range []struct {
		copies [][2]int // node [1] takes node [0]'s name
		want   string
	}{
		{[][2]int{{0, 1}}, "big-000"},
		{[][2]int{{17, 4321}}, "big-017"},
		{[][2]int{{4998, 4999}}, "big-4998"},
		{[][2]int{{10, 4000}, {2000, 3000}}, "big-2000"},
	} {
		p := platform.Homogeneous("big", 5000, 1, 1)
		for _, c := range tc.copies {
			p.Nodes[c[1]].Name = p.Nodes[c[0]].Name
		}
		want := `platform "big": duplicate node name "` + tc.want + `"`
		if err := p.Validate(); err == nil || err.Error() != want {
			t.Errorf("copies %v: %v, want %s", tc.copies, err, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := platform.GenSpec{Name: "g", N: 20, Bandwidth: 100, MinPower: 50, MaxPower: 500, Seed: 7}
	a, err := platform.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := platform.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("generation not deterministic at node %d", i)
		}
	}
	for _, n := range a.Nodes {
		if n.Power < 50 || n.Power > 500 {
			t.Errorf("node %s power %g out of [50, 500]", n.Name, n.Power)
		}
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []platform.GenSpec{
		{N: 0, Bandwidth: 1, MinPower: 1, MaxPower: 2},
		{N: 1, Bandwidth: 0, MinPower: 1, MaxPower: 2},
		{N: 1, Bandwidth: 1, MinPower: 0, MaxPower: 2},
		{N: 1, Bandwidth: 1, MinPower: 3, MaxPower: 2},
	}
	for i, spec := range bad {
		if _, err := platform.Generate(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestHeterogenize(t *testing.T) {
	base := platform.Homogeneous("h", 100, 400, 100)
	het, err := platform.Heterogenize(base, platform.BackgroundLoad{
		Fraction:    0.5,
		LoadFactors: []float64{0.25, 0.5},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if platform.DistinctSpecs(het.Nodes) == 1 {
		t.Error("heterogenisation had no effect")
	}
	loaded := 0
	for i, n := range het.Nodes {
		if n.Name != base.Nodes[i].Name {
			t.Fatalf("node %d renamed", i)
		}
		if n.Power != 400 {
			loaded++
			if n.Power != 100 && n.Power != 200 {
				t.Errorf("unexpected degraded power %g", n.Power)
			}
		}
	}
	if loaded != 50 {
		t.Errorf("%d nodes loaded, want 50", loaded)
	}
	// Base must be untouched.
	if platform.DistinctSpecs(base.Nodes) != 1 {
		t.Error("Heterogenize mutated its input")
	}
}

func TestHeterogenizeRejections(t *testing.T) {
	base := platform.Homogeneous("h", 4, 400, 100)
	if _, err := platform.Heterogenize(base, platform.BackgroundLoad{Fraction: 1.5, LoadFactors: []float64{0.5}}); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := platform.Heterogenize(base, platform.BackgroundLoad{Fraction: 0.5}); err == nil {
		t.Error("no load factors accepted")
	}
	if _, err := platform.Heterogenize(base, platform.BackgroundLoad{Fraction: 0.5, LoadFactors: []float64{1.5}}); err == nil {
		t.Error("load factor > 1 accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := platform.Homogeneous("file", 3, 250, 100)
	path := filepath.Join(t.TempDir(), "platform.json")
	if err := p.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := platform.LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name || back.Bandwidth != p.Bandwidth || len(back.Nodes) != len(p.Nodes) {
		t.Errorf("round trip mismatch: %+v vs %+v", back, p)
	}
}

func TestParseJSONRejectsInvalid(t *testing.T) {
	if _, err := platform.ParseJSON([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := platform.ParseJSON([]byte(`{"name":"x","bandwidth_mbps":0,"nodes":[]}`)); err == nil {
		t.Error("invalid platform accepted")
	}
	if _, err := platform.LoadJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSortByPowerDesc(t *testing.T) {
	p := &platform.Platform{Name: "s", Bandwidth: 1, Nodes: []platform.Node{
		{Name: "b", Power: 10}, {Name: "a", Power: 30}, {Name: "c", Power: 30}, {Name: "d", Power: 20},
	}}
	sorted := p.SortByPowerDesc()
	want := []string{"a", "c", "d", "b"}
	for i, n := range sorted {
		if n.Name != want[i] {
			t.Fatalf("sorted[%d] = %s, want %s", i, n.Name, want[i])
		}
	}
	// Input order untouched.
	if p.Nodes[0].Name != "b" {
		t.Error("SortByPowerDesc mutated the platform")
	}
}

// Property: Heterogenize never raises a node's power and keeps the pool
// size and names.
func TestPropertyHeterogenizeOnlyDegrades(t *testing.T) {
	f := func(seed int64, fracSeed uint8) bool {
		base := platform.Homogeneous("p", 30, 400, 100)
		frac := float64(fracSeed%100) / 100
		het, err := platform.Heterogenize(base, platform.BackgroundLoad{
			Fraction:    frac,
			LoadFactors: []float64{0.25, 0.5, 0.75},
			Seed:        seed,
		})
		if err != nil {
			return false
		}
		if len(het.Nodes) != len(base.Nodes) {
			return false
		}
		for i, n := range het.Nodes {
			if n.Power > base.Nodes[i].Power || n.Name != base.Nodes[i].Name {
				return false
			}
		}
		return het.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Generation must be reproducible: the same GenSpec yields the same
// platform on every call (no global math/rand state involved).
func TestGenerateReproducible(t *testing.T) {
	spec := platform.GenSpec{
		Name: "repro", N: 40, Bandwidth: 100, MinPower: 100, MaxPower: 800, Seed: 99,
	}
	a, err := platform.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := platform.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs across identical specs: %+v vs %+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
	// A different seed produces a different pool.
	spec.Seed = 100
	c, err := platform.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Nodes {
		if a.Nodes[i] != c.Nodes[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical platforms")
	}
}

// An explicit *rand.Rand takes precedence over Seed and threads one
// deterministic stream through several generations.
func TestGenerateExplicitRand(t *testing.T) {
	spec := platform.GenSpec{
		Name: "stream", N: 10, Bandwidth: 100, MinPower: 100, MaxPower: 800,
	}

	gen2 := func(seed int64) (*platform.Platform, *platform.Platform) {
		rng := rand.New(rand.NewSource(seed))
		s := spec
		s.Rand = rng
		a, err := platform.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := platform.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}

	a1, b1 := gen2(7)
	a2, b2 := gen2(7)
	// The shared stream advances: the second platform differs from the
	// first...
	if a1.Nodes[0] == b1.Nodes[0] && a1.Nodes[1] == b1.Nodes[1] {
		t.Error("shared stream did not advance between generations")
	}
	// ...but the whole two-platform scenario replays exactly from the
	// stream seed.
	for i := range a1.Nodes {
		if a1.Nodes[i] != a2.Nodes[i] || b1.Nodes[i] != b2.Nodes[i] {
			t.Fatalf("scenario not reproducible at node %d", i)
		}
	}

	// Heterogenize honours an explicit stream the same way.
	base := platform.Homogeneous("h", 20, 400, 100)
	bg := platform.BackgroundLoad{
		Fraction:    0.5,
		LoadFactors: []float64{0.25, 0.5},
		Rand:        rand.New(rand.NewSource(3)),
	}
	h1, err := platform.Heterogenize(base, bg)
	if err != nil {
		t.Fatal(err)
	}
	bg.Rand = rand.New(rand.NewSource(3))
	h2, err := platform.Heterogenize(base, bg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.Nodes {
		if h1.Nodes[i] != h2.Nodes[i] {
			t.Fatalf("Heterogenize with equal streams diverged at node %d", i)
		}
	}
}

// TestGenerateByteIdenticalAcrossRunsAndGoroutines is the determinism
// contract the scenario corpus, the fuzz harness, and the golden
// benchmarks all lean on: the same GenSpec (or the same Heterogenize
// seed) must yield byte-identical platforms no matter how many goroutines
// generate concurrently. Any map-iteration or shared-state
// nondeterminism in generation would surface here as diverging JSON.
func TestGenerateByteIdenticalAcrossRunsAndGoroutines(t *testing.T) {
	spec := platform.GenSpec{
		Name: "det", N: 200, Bandwidth: 100, MinPower: 50, MaxPower: 2000, Seed: 42,
	}
	ref, err := platform.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	refHet, err := platform.Heterogenize(ref, platform.BackgroundLoad{
		Fraction: 0.6, LoadFactors: []float64{0.25, 0.5, 0.75}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	refHetJSON, err := refHet.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	type out struct{ gen, het []byte }
	results := make([]out, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := platform.Generate(spec)
			if err != nil {
				return
			}
			results[w].gen, _ = p.MarshalIndent()
			h, err := platform.Heterogenize(p, platform.BackgroundLoad{
				Fraction: 0.6, LoadFactors: []float64{0.25, 0.5, 0.75}, Seed: 7,
			})
			if err != nil {
				return
			}
			results[w].het, _ = h.MarshalIndent()
		}(w)
	}
	wg.Wait()
	for w, r := range results {
		if !bytes.Equal(r.gen, refJSON) {
			t.Errorf("goroutine %d: Generate bytes diverged", w)
		}
		if !bytes.Equal(r.het, refHetJSON) {
			t.Errorf("goroutine %d: Heterogenize bytes diverged", w)
		}
	}
}

// TestDigestIsInjective: the digest moves with every field that names the
// platform, and string boundaries are part of it.
func TestDigestIsInjective(t *testing.T) {
	base := func() *platform.Platform {
		return &platform.Platform{Name: "p", Bandwidth: 100, Nodes: []platform.Node{
			{Name: "a", Power: 100},
			{Name: "bc", Power: 200, LinkBandwidth: 10},
			{Name: "d", Power: 300},
		}}
	}
	ref := base().Digest()
	if base().Digest() != ref {
		t.Fatal("equal platforms digest differently")
	}
	for name, mutate := range map[string]func(*platform.Platform){
		"platform name":  func(p *platform.Platform) { p.Name = "q" },
		"bandwidth":      func(p *platform.Platform) { p.Bandwidth = 101 },
		"node name":      func(p *platform.Platform) { p.Nodes[2].Name = "e" },
		"node power":     func(p *platform.Platform) { p.Nodes[0].Power++ },
		"node link":      func(p *platform.Platform) { p.Nodes[1].LinkBandwidth = 11 },
		"link made zero": func(p *platform.Platform) { p.Nodes[1].LinkBandwidth = 0 },
		"node order":     func(p *platform.Platform) { p.Nodes[0], p.Nodes[2] = p.Nodes[2], p.Nodes[0] },
		"node dropped":   func(p *platform.Platform) { p.Nodes = p.Nodes[:2] },
		"name boundary":  func(p *platform.Platform) { p.Nodes[0].Name, p.Nodes[1].Name = "ab", "c" },
		"name holding a length prefix": func(p *platform.Platform) {
			p.Nodes[0].Name = "a\x00\x00\x00\x00\x00\x00\x00\x02bc"
		},
	} {
		p := base()
		mutate(p)
		if p.Digest() == ref {
			t.Errorf("%s: digest unchanged", name)
		}
	}
	// A platform larger than the digest's buffer, and a name larger still.
	big := platform.Homogeneous("big", 5000, 100, 100)
	d1 := big.Digest()
	big.Nodes[4999].Power++
	if big.Digest() == d1 {
		t.Error("last node of a large platform is not covered")
	}
	big.Nodes[0].Name = strings.Repeat("n", 10_000)
	d2 := big.Digest()
	big.Nodes[0].Name += "n"
	if big.Digest() == d2 {
		t.Error("a name larger than the buffer is not covered")
	}
}
