package experiments_test

import (
	"strings"
	"testing"

	"adept/internal/experiments"
)

func quickParams() experiments.Params {
	p := experiments.Defaults()
	p.Quick = true
	return p
}

// TestAllExperimentsRunAndReproduceShapes runs the full registry in quick
// mode and asserts that every report carries its REPRODUCED shape verdict
// where one is computed.
func TestAllExperimentsRunAndReproduceShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, entry := range experiments.Registry() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			rep, err := entry.Run(t.Context(), quickParams())
			if err != nil {
				t.Fatalf("%s: %v", entry.ID, err)
			}
			if rep.ID != entry.ID {
				t.Errorf("report ID %q, want %q", rep.ID, entry.ID)
			}
			if len(rep.Rows) == 0 {
				t.Errorf("%s: empty report", entry.ID)
			}
			text := rep.Render()
			if strings.Contains(text, "NOT reproduced") {
				t.Errorf("%s: shape not reproduced:\n%s", entry.ID, text)
			}
			t.Logf("\n%s", text)
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := experiments.Lookup("table4"); !ok {
		t.Error("table4 not registered")
	}
	if _, ok := experiments.Lookup("bogus"); ok {
		t.Error("bogus experiment found")
	}
	if got := len(experiments.IDs()); got != 8 {
		t.Errorf("%d experiments registered, want 8 (Tables 3-4, Figs 2-7)", got)
	}
}

func TestReportRenderAligned(t *testing.T) {
	rep := experiments.Report{
		ID:      "x",
		Title:   "t",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	out := rep.Render()
	for _, want := range []string{"X — t", "a", "bbbb", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}
