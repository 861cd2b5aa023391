// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the substituted substrate: the discrete-event
// simulator plays the Grid'5000 testbed, the goroutine runtime plays DIET +
// GoDIET, and synthetic calibrated platforms play the Lyon/Orsay clusters.
//
// Each experiment is a function returning a Report whose rows mirror the
// series/rows the paper presents; EXPERIMENTS.md records the paper-vs-
// measured comparison for each.
package experiments

import (
	"fmt"
	"strings"

	"adept/internal/model"
	"adept/internal/platform"
)

// Params holds the reference calibration shared by all experiments.
// The absolute values substitute for the paper's testbed: ~400 MFlop/s
// nodes (Linpack-class measurements for the 2005-era Grid'5000 Opterons)
// and 100 Mb/s effective TCP bandwidth. Every experiment's *shape*
// conclusions are insensitive to these within wide margins.
type Params struct {
	// Costs are the middleware cost parameters (Table 3 values by default).
	Costs model.Costs
	// Bandwidth is the homogeneous link bandwidth in Mb/s.
	Bandwidth float64
	// NodePower is the reference homogeneous node power in MFlop/s.
	NodePower float64
	// Seed drives all synthetic randomness.
	Seed int64
	// Quick shrinks simulation windows and load levels so the whole suite
	// runs in seconds (used by tests; benchmarks and the CLI use full runs).
	Quick bool
}

// Defaults returns the reference calibration.
func Defaults() Params {
	return Params{
		Costs:     model.DIETDefaults(),
		Bandwidth: 100,
		NodePower: 400,
		Seed:      20080601, // the paper's publication month
	}
}

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment identifier (e.g. "table4", "fig6").
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the data, already formatted.
	Rows [][]string
	// Notes carry shape conclusions checked against the paper.
	Notes []string
}

// Render formats the report as an aligned text table.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(r.ID), r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner func(Params) (Report, error)

// Registry maps experiment IDs to runners, in paper order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table3", Table3},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"table4", Table4},
		{"fig6", Fig6},
		{"fig7", Fig7},
	}
}

// Lookup finds a runner by ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// IDs lists the registered experiment IDs in order.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// homogeneousPlatform builds the reference homogeneous pool.
func homogeneousPlatform(p Params, name string, n int) *platform.Platform {
	return platform.Homogeneous(name, n, p.NodePower, p.Bandwidth)
}

// heterogenizedPlatform reproduces §5.3: a homogeneous cluster whose nodes
// partially run background matrix-multiplication jobs, leaving 1/4, 1/2 or
// 3/4 of their power to the middleware.
func heterogenizedPlatform(p Params, name string, n int) (*platform.Platform, error) {
	base := platform.Homogeneous(name, n, p.NodePower, p.Bandwidth)
	return platform.Heterogenize(base, platform.BackgroundLoad{
		Fraction:    0.6,
		LoadFactors: []float64{0.25, 0.5, 0.75},
		Seed:        p.Seed,
	})
}

// fmtF renders a float with sensible precision for tables.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
