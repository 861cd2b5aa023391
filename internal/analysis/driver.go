package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Unit is one loaded, type-checked package ready for analysis (Load).
type Unit struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// A Finding is one diagnostic after suppression matching, positioned and
// ready to print.
type Finding struct {
	Analyzer   string
	Message    string
	Pos        token.Position
	Suppressed bool
	// Reason carries the //adeptvet:allow justification when Suppressed.
	Reason string
}

func (f Finding) String() string {
	return f.Pos.String() + ": " + f.Analyzer + ": " + f.Message
}

// RunUnit applies the whole suite (All) to one package, matches findings
// against //adeptvet:allow directives, and returns every finding
// (suppressed ones included, flagged) in stable position order — the
// stale and malformed directives among them, as allowaudit findings —
// plus the audit view of every directive.
func RunUnit(u *Unit) ([]Finding, []AllowRecord, error) {
	allows := collectAllows(u.Fset, u.Files)

	var diags []Diagnostic
	for _, a := range All() {
		if a.SkipMainPackages && u.Pkg.Name() == "main" {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, err
		}
	}

	var findings []Finding
	for _, d := range diags {
		f := Finding{Analyzer: d.Analyzer, Message: d.Message, Pos: u.Fset.Position(d.Pos)}
		f.Reason, f.Suppressed = allows.suppresses(d)
		findings = append(findings, f)
	}
	for _, d := range append(allows.malformed, allows.stale()...) {
		findings = append(findings, Finding{Analyzer: d.Analyzer, Message: d.Message, Pos: u.Fset.Position(d.Pos)})
	}
	sortFindings(findings)
	return findings, allows.records(), nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
