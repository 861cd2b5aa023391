package experiments_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adept/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current outputs")

// goldenParams pins the exact calibration the golden files were generated
// with; any drift in defaults would otherwise masquerade as planner drift.
func goldenParams() experiments.Params {
	p := experiments.Defaults()
	p.Quick = true
	return p
}

// maskTable3 blanks the wall-clock-measured cells of the calibration
// table: Table 3 is produced by timing the running middleware, so its
// measured column and sample-count note vary run to run. The structure,
// the parameter names, and the configured reference values are exact.
func maskTable3(rep experiments.Report) experiments.Report {
	masked := rep
	masked.Rows = make([][]string, len(rep.Rows))
	for i, row := range rep.Rows {
		r := append([]string(nil), row...)
		if len(r) > 2 {
			r[2] = "(measured)"
		}
		masked.Rows[i] = r
	}
	masked.Notes = append([]string(nil), rep.Notes...)
	if len(masked.Notes) > 0 {
		masked.Notes[0] = "(measurement statistics vary run to run)"
	}
	return masked
}

// TestGoldenReports locks every paper-reproduction table and figure to a
// committed golden render: a planner or model refactor that silently
// shifts any reproduced number fails here, with a diffable artifact.
// Regenerate with:
//
//	go test ./internal/experiments -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, entry := range experiments.Registry() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			rep, err := entry.Run(t.Context(), goldenParams())
			if err != nil {
				t.Fatalf("%s: %v", entry.ID, err)
			}
			if entry.ID == "table3" {
				rep = maskTable3(rep)
			}
			got := rep.Render()
			path := filepath.Join("testdata", entry.ID+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s\n--- first differing line ---\n%s",
					entry.ID, got, want, firstDiffLine(got, string(want)))
			}
		})
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "got:  " + al[i] + "\nwant: " + bl[i]
		}
	}
	return "(length differs)"
}
