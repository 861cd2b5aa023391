package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// MapOrder flags `for range` over maps in packages whose output ordering
// must be deterministic. Map iteration order is randomized per run, so a
// map range that feeds plan output, serialized bytes, float accumulation,
// or any snapshot handed to a caller makes the bit-reproducibility
// guarantee (node-space vs class-space, GOMAXPROCS 1/2/8, cache replay)
// silently false.
//
// It recognizes two idioms as safe. Collect-then-sort: a range body that
// only appends loop variables into a slice which the same function later
// passes to sort.* or slices.Sort*. A per-key write: a body that only
// writes into maps at the loop's key (see isPerKeyWrite), so the maps it
// fills are the same in any order. Everything else needs either a
// sorted-key loop or an //adeptvet:allow maporder <reason> directive.
var MapOrder = &Analyzer{
	Name:             "maporder",
	Doc:              "flag nondeterministic map iteration in order-sensitive packages",
	SkipMainPackages: true,
	Run:              runMapOrder,
}

func runMapOrder(pass *Pass) error {
	if !isOrderSensitive(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rng.X]
				if !ok || !isMap(tv.Type) {
					return true
				}
				if isCollectThenSort(pass.TypesInfo, fn.Body, rng) || isPerKeyWrite(pass.TypesInfo, rng) {
					return true
				}
				pass.Reportf(rng.Pos(), "map iteration order is nondeterministic and this package's output ordering is determinism-critical; iterate sorted keys instead (collect, sort.*, then index)")
				return true
			})
		}
	}
	return nil
}

// isCollectThenSort recognizes the canonical safe idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys) // or slices.Sort(keys), sort.Slice(keys, ...)
//
// Every statement of the range body must be an append of loop-derived
// values into slice variables, and each of those slices must flow into a
// sort call later in the same function.
func isCollectThenSort(info *types.Info, funcBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	targets := make(map[types.Object]bool)
	for _, stmt := range rng.Body.List {
		assign, ok := stmt.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return false
		}
		lhs, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return false
		}
		obj := info.ObjectOf(lhs)
		if obj == nil {
			return false
		}
		targets[obj] = true
	}
	if len(targets) == 0 {
		return false
	}

	// Every collected slice must be sorted after the loop.
	sorted := make(map[types.Object]bool)
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := info.ObjectOf(arg); obj != nil && targets[obj] {
				sorted[obj] = true
			}
		}
		return true
	})
	for obj := range targets {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

// isPerKeyWrite recognizes a range body in which no iteration can observe
// another:
//
//	for k, v := range m { out[k] = v.Load() }
//
// It writes at least once, and only to blank, to variables it declares,
// and to maps at the loop's key (an assignment or a delete); it reads maps
// only at the key; it calls only conversions, len, cap, delete and methods
// on the loop's key or value; and it leaves only by continue. The rule
// trusts that a map's values do not alias one another.
func isPerKeyWrite(info *types.Info, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	k, v := info.ObjectOf(key), types.Object(nil)
	if id, ok := rng.Value.(*ast.Ident); ok && id.Name != "_" {
		v = info.ObjectOf(id)
	}
	is := func(e ast.Expr, objs ...types.Object) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && slices.Contains(objs, info.ObjectOf(id))
	}
	atKey := func(e ast.Expr) bool { return is(e, k) }
	isMapExpr := func(e ast.Expr) bool { tv, ok := info.Types[e]; return ok && isMap(tv.Type) }
	wrote := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				switch l := ast.Unparen(l).(type) {
				case *ast.Ident:
					obj := info.ObjectOf(l)
					ok = ok && (l.Name == "_" || obj != nil && obj.Pos() >= rng.Body.Pos() && obj.Pos() < rng.Body.End())
				case *ast.IndexExpr:
					wrote = true
					ok = ok && isMapExpr(l.X) && atKey(l.Index)
				default:
					ok = false
				}
			}
		case *ast.IndexExpr:
			ok = ok && (!isMapExpr(n.X) || atKey(n.Index))
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				b, _ := info.Uses[fun].(*types.Builtin)
				del := b != nil && b.Name() == "delete" && isMapExpr(n.Args[0]) && atKey(n.Args[1])
				wrote = wrote || del
				ok = ok && (tv.IsType() || del || b != nil && (b.Name() == "len" || b.Name() == "cap"))
			case *ast.SelectorExpr:
				root := fun.X
				for sel, isSel := root.(*ast.SelectorExpr); isSel; sel, isSel = root.(*ast.SelectorExpr) {
					root = sel.X
				}
				_, method := info.Selections[fun]
				ok = ok && (tv.IsType() || method && is(root, k, v))
			default:
				ok = ok && tv.IsType()
			}
		case *ast.BranchStmt:
			ok = ok && n.Tok == token.CONTINUE && n.Label == nil
		case *ast.UnaryExpr:
			ok = ok && n.Op != token.ARROW
		case *ast.FuncLit, *ast.ReturnStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt,
			*ast.IncDecStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.LabeledStmt:
			ok = false
		}
		return ok
	})
	return ok && wrote
}
