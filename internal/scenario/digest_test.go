package scenario_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adept/internal/scenario"
)

// TestSpecDigestCanonical: the digest is over the effective spec, so a
// spec that spells defaults out digests like the bare one, and it is
// stable across calls.
func TestSpecDigestCanonical(t *testing.T) {
	bare := scenario.Spec{Family: scenario.ClusterGrid, N: 64, Seed: 9}
	explicit := bare
	explicit.Name = "cluster-grid-n64-s9"
	explicit.Bandwidth = 100
	explicit.InterBandwidth = 10
	explicit.Clusters = 4
	explicit.Tiers = 3
	explicit.Spread = 0.05
	if bare.Digest() != explicit.Digest() {
		t.Error("a spec with explicit defaults digests unlike the bare spec")
	}
	if bare.Digest() != bare.Digest() {
		t.Error("digest differs between calls")
	}
	a, err := bare.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("equal digests, different platforms")
	}
}

// TestSpecDigestCoversEveryField sets each field of Spec in turn to a
// value that is neither zero nor its default and requires a new digest. It
// walks the struct by reflection: a knob added to Spec and forgotten in
// Digest would let two different fleets share a cached plan, and fails
// here.
func TestSpecDigestCoversEveryField(t *testing.T) {
	base := scenario.Spec{Family: scenario.Clustered, N: 64, Seed: 9}
	ref := base.Digest()
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		spec := base
		f := reflect.ValueOf(&spec).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 7)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.37)
		default:
			t.Fatalf("Spec.%s has kind %s: teach Digest and this test about it", rt.Field(i).Name, f.Kind())
		}
		if spec.Digest() == ref {
			t.Errorf("changing Spec.%s leaves the digest unchanged", rt.Field(i).Name)
		}
	}
	// Strings are length-prefixed: moving a byte from Family to Name is a
	// different spec.
	x := scenario.Spec{Family: "ab", Name: "c", N: 4}
	y := scenario.Spec{Family: "a", Name: "bc", N: 4}
	if x.Digest() == y.Digest() {
		t.Error("family/name boundary is not part of the digest")
	}
}

// TestGenerateNodeNames pins the node names to what fmt's "%s-%04d" gave
// before names were built by hand, across every padding width.
func TestGenerateNodeNames(t *testing.T) {
	p, err := scenario.Spec{Family: scenario.Bimodal, Name: "pool", N: 10_050, Seed: 1}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 9, 10, 99, 100, 999, 1000, 9999, 10_000, 10_049} {
		if want := fmt.Sprintf("%s-%04d", "pool", i); p.Nodes[i].Name != want {
			t.Errorf("node %d is named %q, want %q", i, p.Nodes[i].Name, want)
		}
	}
}

// TestGenerateAllocations: a node costs its name and nothing else.
func TestGenerateAllocations(t *testing.T) {
	const n = 5000
	spec := scenario.Spec{Family: scenario.ClusterGrid, N: n, Seed: 3, PowerLevels: 8}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := spec.Generate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n+100 {
		t.Errorf("Generate of %d nodes made %.0f allocations, want about one per node", n, allocs)
	}
}

// TestSpecValidate: what generation cannot run on is refused up front,
// before anything is allocated for it.
func TestSpecValidate(t *testing.T) {
	ok := scenario.Spec{Family: scenario.FatTree, N: 16, Seed: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	for name, mutate := range map[string]func(*scenario.Spec){
		"unknown family":     func(s *scenario.Spec) { s.Family = "torus" },
		"one node":           func(s *scenario.Spec) { s.N = 1 },
		"negative bandwidth": func(s *scenario.Spec) { s.Bandwidth = -1 },
		"name to repeat N times": func(s *scenario.Spec) {
			s.Name = strings.Repeat("n", 100_000)
		},
		"negative clusters": func(s *scenario.Spec) { s.Clusters = -1 },
		"clusters above N":  func(s *scenario.Spec) { s.Clusters = 2_000_000_000 },
		"negative tiers":    func(s *scenario.Spec) { s.Tiers = -1 },
		"tiers overflow":    func(s *scenario.Spec) { s.Tiers = 64 },
	} {
		spec := ok
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := spec.Generate(); err == nil {
			t.Errorf("%s: generated", name)
		}
	}
}

// countdownCtx is a context that fires after its Err has been polled a
// given number of times.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls == 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// TestColumnsPollsContext: Columns looks at its context once, after
// drawing the powers, and stops there if it is done.
func TestColumnsPollsContext(t *testing.T) {
	spec := scenario.Spec{Family: scenario.PowerLaw, N: 32, Seed: 5}
	c, err := spec.Columns(&countdownCtx{Context: context.Background(), polls: 0}, nil)
	if !errors.Is(err, context.Canceled) || c != nil {
		t.Errorf("context done at the poll: got (%v, %v), want context.Canceled", c, err)
	}
	c, err = spec.Columns(&countdownCtx{Context: context.Background(), polls: 1}, nil)
	if err != nil {
		t.Fatalf("a context that outlives generation: %v", err)
	}
	want, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Platform(), want) {
		t.Error("Columns under a context and Generate disagree")
	}
}
