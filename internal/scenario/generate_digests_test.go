package scenario_test

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adept/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/generate_digests.json from what Generate produces now")

// TestGoldenGenerateDigests pins what Generate expands a spec into,
// absolutely: the content digest of the platform — every name, power and
// link, in pool order — for every family at sizes on both sides of each
// name-width edge (four digits up to 9 999, five from 10 000), two seeds,
// continuous and catalogue-quantised powers, plus one spec with a name of
// its own. A change that moves a digest changes what every cached scenario
// key stands for: bump Spec's digestDomain with it. Regenerate with:
//
//	go test ./internal/scenario -run TestGoldenGenerateDigests -update
func TestGoldenGenerateDigests(t *testing.T) {
	got := map[string]string{}
	for _, spec := range goldenSpecs() {
		p, err := spec.Generate()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		sum := p.Digest()
		got[fmt.Sprintf("%s/name=%q/n%d/s%d/L%d", spec.Family, spec.Name, spec.N, spec.Seed, spec.PowerLevels)] = hex.EncodeToString(sum[:])
	}

	path := filepath.Join("testdata", "generate_digests.json")
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
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("generated %d fixtures, golden file holds %d (run with -update after reviewing)", len(got), len(want))
	}
	for label, g := range got {
		if w, ok := want[label]; !ok {
			t.Errorf("%s: no recorded digest", label)
		} else if g != w {
			t.Errorf("%s: Generate drifted from the recorded platform:\n got  %s\n want %s", label, g, w)
		}
	}
}

// goldenSpecs are the specs whose platforms generate_digests.json pins.
func goldenSpecs() []scenario.Spec {
	var specs []scenario.Spec
	for _, fam := range scenario.Families() {
		for _, n := range []int{2, 40, 4000, 9999, 10_001, 100_000} {
			for _, seed := range []int64{3, 1 << 40} {
				for _, levels := range []int{0, 8} {
					specs = append(specs, scenario.Spec{Family: fam, N: n, Seed: seed, PowerLevels: levels})
				}
			}
		}
	}
	return append(specs, scenario.Spec{Family: scenario.FatTree, Name: "pool", N: 12_000, Seed: 5, PowerLevels: 8})
}
