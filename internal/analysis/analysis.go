// Package analysis is adeptvet's static-analysis framework: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// model (Analyzer, Pass, Diagnostic) plus the project-specific analyzers
// that machine-enforce the planner's determinism, hot-path, and
// observability invariants.
//
// The repo's headline guarantee — plans bit-identical across node-space vs
// class-space planning, GOMAXPROCS 1/2/8, and cache replay — is otherwise
// enforced only by tests that sample the input space. One unsorted map
// range or stray time.Now in internal/core silently breaks it until a
// differential test happens to catch it. The analyzers here turn those
// tribal-knowledge invariants into lint rules:
//
//	maporder    map iteration order must not reach output in
//	            determinism-critical packages
//	nondet      no wall clock, global math/rand, or environment reads in
//	            planner packages
//	floataccum  no bare float += / -= accumulation in evaluator hot paths
//	            (use the compensated-sum helpers)
//	ctxflow     request-scoped code must propagate context.Context;
//	            context.Background() needs an explicit allow
//	metricname  obs metric names must follow the adeptd_* convention,
//	            counters ending in _total
//	hotalloc    no allocation-prone constructs inside functions annotated
//	            //adeptvet:hotpath
//	singlethread
//	            planning packages start no goroutine and import neither
//	            sync, sync/atomic nor runtime
//
// Intentional exceptions are annotated in source with
//
//	//adeptvet:allow <analyzer> <reason>
//
// which suppresses findings on the same or the following line (or, when
// placed in a function's doc comment, in the whole function). Every
// suppression carries a human-readable reason and is auditable via
// `adeptvet -allows`; stale directives that no longer suppress anything
// are themselves reported.
//
// The framework would normally be golang.org/x/tools/go/analysis +
// analysistest, but this module is deliberately dependency-free (see the
// note in go.mod), so the loader speaks `go list -export` and the driver
// speaks the `go vet -vettool` unit-checker protocol using only the
// standard library.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis: its name, documentation, and logic.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //adeptvet:allow directives. It must be a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks,
	// shown by `adeptvet help`.
	Doc string

	// SkipMainPackages excludes package main from the analysis (command
	// entry points legitimately read flags, the environment, and the
	// wall clock, and own the root context).
	SkipMainPackages bool

	// Run applies the analyzer to a package and reports findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer with the type-checked syntax of a single
// package and a sink for its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding from one analyzer, positioned in the fileset
// of the pass that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// All returns the full adeptvet analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		NonDet,
		FloatAccum,
		CtxFlow,
		MetricName,
		HotAlloc,
		SingleThread,
	}
}

// ByName resolves an analyzer from the suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
