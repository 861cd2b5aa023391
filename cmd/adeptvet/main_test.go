package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the adeptvet binary once into a test temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "adeptvet")
	cmd := exec.Command("go", "build", "-o", bin, "adept/cmd/adeptvet")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building adeptvet: %v\n%s", err, out)
	}
	return bin
}

// TestBinaryOverFixtures runs the built binary over the fixture module
// end to end: the fixtures' unsuppressed findings, one of every analyzer
// and of the allow audit, must fail the run, while the out-of-scope
// packages stay silent.
func TestBinaryOverFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and type-checks the fixture module")
	}
	bin := buildTool(t)
	testdata, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = testdata
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("adeptvet over the fixtures succeeded; want findings\n%s", out)
	}
	text := string(out)
	for _, analyzer := range []string{"maporder", "nondet", "floataccum", "ctxflow", "metricname", "hotalloc", "singlethread", "allowaudit"} {
		if !strings.Contains(text, analyzer+": ") {
			t.Errorf("adeptvet output missing %s finding\n%s", analyzer, text)
		}
	}
	// Out-of-scope packages must stay silent: maporder/misc is outside
	// the order-sensitive scope, nondet/obs is exempt, singlethread/service
	// is not a planning package. (Suppression of individual lines is
	// verified precisely by the analysistest harness; here the coarse
	// signal suffices.)
	for _, leak := range []string{"maporder/misc", "nondet/obs", "singlethread/service"} {
		if strings.Contains(text, leak) {
			t.Errorf("adeptvet output leaked %q; suppression or scoping broke\n%s", leak, text)
		}
	}
}

// TestStandaloneSelfScan runs the built binary the way CI's lint job
// does: over the whole repository, expecting a clean exit.
func TestStandaloneSelfScan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and type-checks the repository")
	}
	bin := buildTool(t)
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("adeptvet ./... failed: %v\n%s", err, out)
	}
}
