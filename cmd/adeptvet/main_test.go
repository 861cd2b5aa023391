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

// TestGoVetVettool drives the real `go vet -vettool` protocol end to
// end over the fixture module: cmd/go execs the tool with -V=full and
// -flags, shards it across per-package .cfg units, and the fixture's
// unsuppressed findings must fail the run while the suppressed ones
// stay silent.
func TestGoVetVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and type-checks the fixture module")
	}
	bin := buildTool(t)
	testdata, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = testdata
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool over the fixtures succeeded; want findings\n%s", out)
	}
	text := string(out)
	for _, analyzer := range []string{"maporder", "nondet", "floataccum", "ctxflow", "metricname", "hotalloc", "singlethread"} {
		if !strings.Contains(text, analyzer+": ") {
			t.Errorf("go vet output missing %s finding\n%s", analyzer, text)
		}
	}
	// Out-of-scope packages must stay silent: maporder/misc is outside
	// the order-sensitive scope, nondet/obs is exempt, singlethread/service
	// is not a planning package. (Suppression of
	// individual lines is verified precisely by the analysistest
	// harness; here the coarse signal suffices.)
	for _, leak := range []string{"maporder/misc", "nondet/obs", "singlethread/service"} {
		if strings.Contains(text, leak) {
			t.Errorf("go vet output leaked %q; suppression or scoping broke under the vet protocol\n%s", leak, text)
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

// TestVersionFlag checks the -V=full protocol handshake cmd/go keys its
// vet cache on: one line, ending in a buildID.
func TestVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t)
	out, err := exec.Command(bin, "-V=full").CombinedOutput()
	if err != nil {
		t.Fatalf("adeptvet -V=full: %v\n%s", err, out)
	}
	line := strings.TrimSpace(string(out))
	if !strings.Contains(line, " version ") || !strings.Contains(line, "buildID=") {
		t.Fatalf("-V=full output %q does not match the vet protocol shape", line)
	}
	if strings.Count(string(out), "\n") != 1 {
		t.Fatalf("-V=full must print exactly one line, got %q", out)
	}
}

// TestFlagsJSON checks the -flags handshake: cmd/go parses this JSON to
// split its command line into tool flags and package patterns.
func TestFlagsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t)
	out, err := exec.Command(bin, "-flags").CombinedOutput()
	if err != nil {
		t.Fatalf("adeptvet -flags: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.HasPrefix(strings.TrimSpace(text), "[") {
		t.Fatalf("-flags must print a JSON array, got %q", text)
	}
	for _, name := range []string{"maporder", "nondet", "floataccum", "ctxflow", "metricname", "hotalloc", "singlethread", "V"} {
		if !strings.Contains(text, `"Name": "`+name+`"`) {
			t.Errorf("-flags output missing flag %q\n%s", name, text)
		}
	}
}
