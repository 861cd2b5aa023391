package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// oracles are the declarations under internal/ that no binary, example or
// benchmark reaches and no other package's test refers to, and that stay
// all the same: what a package's own tests compare the production path
// against, or drive it with. One line of reason each; an entry that has
// become reachable some other way is stale and fails the test.
var oracles = map[string]string{
	"adept/internal/blas.Dgemm":                 "the naive triple loop the blocked kernel is checked against",
	"adept/internal/core.ClassIndex.Expand":     "inverse of the collapse; the battery asserts expand(collapse(pool)) is a permutation of the pool",
	"adept/internal/scenario.ChurnFamilies":     "the corpus the churn tests range over, so a new family cannot go untested",
	"adept/internal/service.PlanCache.Contains": "peeks at the cache without refreshing recency, which is how the LRU-order tests see what was evicted",
	"adept/internal/service.Server.SLOTick":     "drives the sampler and the SLO engine with explicit timestamps instead of racing a wall clock",
	"adept/internal/service.Registry.Delete":    "the unconditional delete of the journal tests: the file goes with the entry and a restart does not resurrect it",
}

// TestEveryDeclarationHasACaller holds ROADMAP north-star 2 ("every
// abstraction must pay rent in a test, a benchmark, or a documented
// user") as a whole-program reachability pass. A package-level
// declaration in a non-test file under internal/ must be
//
//  1. reachable from a main or an init of cmd/, examples/ or the bench/
//     module, or
//  2. referenced by a _test.go file of a different package (a shared
//     oracle, fault hook or corpus), or from something that is, or
//  3. named in the oracles table above.
//
// Code only its own package's tests reach has no user. Methods are
// resolved conservatively: one whose name occurs in any interface — the
// repository's or an imported package's — is live as soon as its
// receiver type is, since dynamic dispatch may reach it.
func TestEveryDeclarationHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check in -short mode")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	modules := []string{root, filepath.Join(root, "bench")}
	g := newReachGraph()
	for _, dir := range modules {
		units, err := Load(dir, []string{"./..."})
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		for _, u := range units {
			g.addUnit(u)
		}
	}
	if len(g.decls) < 1000 {
		t.Fatalf("only %d declarations loaded; pattern resolution broke", len(g.decls))
	}

	for key, d := range g.decls {
		if d.name == "init" || d.name == "main" && d.unit.Pkg.Name() == "main" {
			g.mark(key)
		}
	}
	fromBinaries := len(g.live)

	for _, dir := range modules {
		err := testUses(dir, func(testFile string, obj types.Object) {
			key := declKey(obj)
			if d, ok := g.decls[key]; ok && filepath.Dir(d.pos.Filename) != filepath.Dir(testFile) {
				g.mark(key)
			}
		})
		if err != nil {
			t.Fatalf("loading the tests of %s: %v", dir, err)
		}
	}
	if len(g.live) == fromBinaries {
		t.Error("no declaration is kept by another package's test; test loading broke")
	}

	for key, reason := range oracles {
		switch {
		case g.decls[key] == nil:
			t.Errorf("oracle table: %s is not a declaration (%s)", key, reason)
		case g.live[key]:
			t.Errorf("oracle table: %s is reachable without its entry; delete the entry", key)
		}
	}
	for key := range oracles {
		g.mark(key)
	}

	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	var total int
	var offenders []*reachDecl
	for key, d := range g.decls {
		if !strings.HasPrefix(d.pos.Filename, internal) {
			continue
		}
		total++
		if !g.live[key] {
			offenders = append(offenders, d)
		}
	}
	sort.Slice(offenders, func(i, j int) bool {
		a, b := offenders[i].pos, offenders[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, d := range offenders {
		rel, _ := filepath.Rel(root, d.pos.Filename)
		t.Errorf("%s:%d %s %s", rel, d.pos.Line, d.kind, d.name)
	}
	if len(offenders) > 0 {
		t.Errorf("%d of the %d declarations under internal/ have no caller outside their own package's tests: "+
			"delete each with the tests that test only it, or name it in the oracles table with its reason",
			len(offenders), total)
	}
}

// reachDecl is one package-level declaration: a function, a method, a
// type, or one name of a var or const specification.
type reachDecl struct {
	pos  token.Position
	kind string
	name string   // Recv.Name for a method
	node ast.Node // what the declaration refers to is found under here
	unit *Unit
}

type reachGraph struct {
	decls   map[string]*reachDecl
	methods map[string][]string // type key -> keys of its methods
	iface   map[string]bool     // every method name of every interface seen
	seen    map[*types.Package]bool
	live    map[string]bool
}

func newReachGraph() *reachGraph {
	return &reachGraph{
		decls:   make(map[string]*reachDecl),
		methods: make(map[string][]string),
		iface: map[string]bool{
			"Error":  true, // the universe's one interface
			"Unwrap": true, // errors.Is and As assert an interface literal inside their bodies
		},
		seen: make(map[*types.Package]bool),
		live: make(map[string]bool),
	}
}

// declKey names a package-level object or a method the same way whether
// it was type-checked from source or read from export data, which is how
// a reference from bench/ or from a test finds its declaration. Locals,
// fields and interface methods have no key.
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Origin().Signature().Recv(); recv != nil {
			typ := types.Unalias(recv.Type())
			if p, ok := typ.(*types.Pointer); ok {
				typ = types.Unalias(p.Elem())
			}
			named, ok := typ.(*types.Named)
			if !ok {
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func (g *reachGraph) addUnit(u *Unit) {
	add := func(id *ast.Ident, kind string, node ast.Node) {
		obj := u.Info.Defs[id]
		if id.Name == "_" || obj == nil {
			return
		}
		key := declKey(obj)
		d := &reachDecl{pos: u.Fset.Position(id.Pos()), kind: kind, name: id.Name, node: node, unit: u}
		if key == "" { // an init: in no scope, and a package may have several
			key = d.pos.String()
		}
		if kind == "method" {
			typ := key[:strings.LastIndex(key, ".")]
			d.name = key[len(obj.Pkg().Path())+1:]
			g.methods[typ] = append(g.methods[typ], key)
		}
		g.decls[key] = d
	}
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					add(decl.Name, "method", decl)
				} else {
					add(decl.Name, "func", decl)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "type", spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(name, strings.ToLower(decl.Tok.String()), spec)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				g.addInterface(u.Info.TypeOf(it))
			}
			return true
		})
	}
	g.addImportedInterfaces(u.Pkg)
}

func (g *reachGraph) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			g.iface[it.Method(i).Name()] = true
		}
	}
}

func (g *reachGraph) addImportedInterfaces(pkg *types.Package) {
	for _, imp := range pkg.Imports() {
		if g.seen[imp] {
			continue
		}
		g.seen[imp] = true
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				g.addInterface(tn.Type())
			}
		}
		g.addImportedInterfaces(imp)
	}
}

// mark makes a declaration live, and with it everything it refers to;
// a type brings along its methods that an interface could call.
func (g *reachGraph) mark(key string) {
	work := []string{key}
	for len(work) > 0 {
		key, work = work[len(work)-1], work[:len(work)-1]
		d := g.decls[key]
		if d == nil || g.live[key] {
			continue
		}
		g.live[key] = true
		for _, m := range g.methods[key] {
			if g.iface[m[strings.LastIndex(m, ".")+1:]] {
				work = append(work, m)
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := declKey(d.unit.Info.Uses[id]); k != "" {
					work = append(work, k)
				}
			}
			return true
		})
	}
}

// testUses type-checks the _test.go files of the module at dir the way
// the go command compiles them — `go list -test` reports "p [p.test]"
// (p with its in-package tests) and "p_test [p.test]" (the external
// ones), each importing the recompiled variants its ImportMap names —
// and reports every object an identifier in a test file resolves to.
func testUses(dir string, use func(testFile string, obj types.Object)) error {
	type listPackage struct {
		ImportPath string
		Dir        string
		GoFiles    []string // of a test variant: the test files too
		Export     string
		ForTest    string
		ImportMap  map[string]string
		Module     *struct{ GoVersion string }
	}
	cmd := exec.Command("go", "list", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,ForTest,ImportMap,Module", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -test: %v\n%s", err, stderr.Bytes())
	}
	exports := make(map[string]string)
	var tests []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		variant := strings.TrimPrefix(p.ImportPath, p.ForTest)
		if p.ForTest != "" && (strings.HasPrefix(variant, " [") || strings.HasPrefix(variant, "_test [")) {
			tests = append(tests, p)
		}
	}
	for _, p := range tests {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		variants := maps.Clone(exports)
		for path, variant := range p.ImportMap {
			variants[path] = exports[variant]
		}
		path, _, _ := strings.Cut(p.ImportPath, " [")
		_, info, err := typecheck(fset, path, files, variants, "go"+p.Module.GoVersion)
		if err != nil {
			return fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		for id, obj := range info.Uses {
			if file := fset.Position(id.Pos()).Filename; strings.HasSuffix(file, "_test.go") {
				use(file, obj)
			}
		}
	}
	return nil
}
