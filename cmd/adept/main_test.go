package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"adept/internal/scenario"
)

// buildTool compiles the adept binary once into a test temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "adept")
	cmd := exec.Command("go", "build", "-o", bin, "adept/cmd/adept")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building adept: %v\n%s", err, out)
	}
	return bin
}

// TestScenarioFlag: -scenario takes the spec /v1/plan takes as its
// "scenario" member and writes the platform scenario.Spec.Generate draws
// from it, byte for byte; a spec /v1/plan would refuse, or a run with
// nowhere to write the platform, fails the command.
func TestScenarioFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t)
	const specJSON = `{"family":"cluster-grid","n":15,"clusters":3,"inter_bandwidth_mbps":2,"seed":4}`
	var spec scenario.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	p, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "grid.json")
	if msg, err := exec.Command(bin, "-scenario", specJSON, "-platform", out).CombinedOutput(); err != nil {
		t.Fatalf("adept -scenario: %v\n%s", err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("adept -scenario wrote\n%s\nwant Spec.Generate's\n%s", got, want)
	}

	for name, args := range map[string][]string{
		"unknown member": {"-scenario", `{"family":"star","n":8,"nodes":8}`, "-platform", filepath.Join(t.TempDir(), "p.json")},
		"no -platform":   {"-scenario", specJSON},
	} {
		if msg, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
			t.Errorf("%s: adept exited 0\n%s", name, msg)
		}
	}
}
