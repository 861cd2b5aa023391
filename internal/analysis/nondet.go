package analysis

import (
	"go/ast"
)

// NonDet forbids the three classic reproducibility leaks inside planner
// packages: wall-clock reads (time.Now/Since/Until), the global math/rand
// generator, and environment reads (os.Getenv and friends). Planner code
// must take explicit *rand.Rand values seeded by the caller and explicit
// timestamps, so the same inputs always produce the same plan bytes.
//
// Seeded generator construction (rand.New(rand.NewSource(seed))) is fine;
// it is the shared global source and ambient clock/environment that break
// replay. Packages whose job is wall-clock measurement (obs, runtime,
// calib, blas) are exempt by configuration; service and
// autonomic wall-clock stamps carry //adeptvet:allow nondet annotations
// so each one is individually justified.
var NonDet = &Analyzer{
	Name:             "nondet",
	Doc:              "forbid wall clock, global math/rand, and environment reads in planner packages",
	SkipMainPackages: true,
	Run:              runNonDet,
}

// randConstructors are the package-level math/rand functions that build
// explicitly-seeded generators rather than consulting the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runNonDet(pass *Pass) error {
	if !isNonDetScoped(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case isPkgCall(pass.TypesInfo, call, "time", "Now", "Since", "Until"):
				pass.Reportf(call.Pos(), "wall-clock read in a planner package breaks plan replay; take the timestamp from the caller (or //adeptvet:allow nondet <reason> for observability-only stamps)")
			case isGlobalRandCall(pass, call):
				pass.Reportf(call.Pos(), "global math/rand generator is shared, unseeded process state; thread an explicit *rand.Rand seeded by the caller")
			case isPkgCall(pass.TypesInfo, call, "os", "Getenv", "LookupEnv", "Environ", "ExpandEnv"):
				pass.Reportf(call.Pos(), "environment read in a planner package makes plans depend on ambient process state; plumb configuration through explicit parameters")
			}
			return true
		})
	}
	return nil
}

func isGlobalRandCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	return !randConstructors[fn.Name()]
}
