package analysis

import (
	"go/ast"
	"strconv"
)

// SingleThread holds the planning path to the calling goroutine: inside
// the planning packages a go statement, or an import of sync, sync/atomic
// or runtime, is a finding. A plan is then a function of its request at
// any GOMAXPROCS by construction, not by a test matrix, and concurrency
// has one owner — the serving layer's pool slots, one goroutine per job
// whichever planner it runs.
var SingleThread = &Analyzer{
	Name: "singlethread",
	Doc:  "planning packages start no goroutine and import neither sync, sync/atomic nor runtime",
	Run:  runSingleThread,
}

const oneGoroutine = "a plan runs on the calling goroutine alone — parallelism belongs to the serving layer's pool"

func runSingleThread(pass *Pass) error {
	if !isPlanning(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			switch path, _ := strconv.Unquote(imp.Path.Value); path {
			case "sync", "sync/atomic", "runtime":
				pass.Reportf(imp.Pos(), "planning package imports %s; %s", path, oneGoroutine)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement in a planning package; %s", oneGoroutine)
			}
			return true
		})
	}
	return nil
}
