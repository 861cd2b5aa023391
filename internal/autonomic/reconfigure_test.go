package autonomic_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/runtime"
	"adept/internal/scenario"
	"adept/internal/sim"
	"adept/internal/workload"
)

// TestReconfigurationTargetsAgree holds the three interpreters of a patch
// to one verdict: hierarchy.Apply folded op by op (how the controller
// replays what a target accepted), the simulator's Managed and the live
// runtime's System. Driven from the same tree with the same patch, each
// must accept the same prefix, refuse the next op with the same message,
// and end on an equivalent tree, links included.
//
// The patches are Diffs between plans of one pool that share a root, the
// cases a control loop emits, and seeded hostile sequences: unknown and
// empty names, duplicate adds, adds under a server, cycles, ops on the
// root, non-childless removes and demotes, role mismatches, and powers and
// links that are zero, negative, NaN or infinite.
func TestReconfigurationTargetsAgree(t *testing.T) {
	type patchCase struct {
		name  string
		from  *hierarchy.Hierarchy
		patch hierarchy.Patch
	}
	var cases []patchCase

	for _, spec := range scenario.Corpus(3, 12, 40) {
		cols, err := spec.Columns(t.Context(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var plans []*hierarchy.Hierarchy
		for _, n := range []int{10, 100, 310} {
			plan, err := core.NewHeuristic().PlanContext(t.Context(), core.Request{
				Columns: cols, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: n}.MFlop(),
			})
			if err != nil {
				t.Fatalf("%s: %v", cols.Name, err)
			}
			plans = append(plans, plan.Hierarchy)
		}
		for i, a := range plans {
			for j, b := range plans {
				patch, err := hierarchy.Diff(a, b)
				if errors.Is(err, hierarchy.ErrRootChanged) || i == j {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, patchCase{fmt.Sprintf("%s/%d->%d", cols.Name, i, j), a, patch})
			}
		}
	}

	if len(cases) < 20 {
		t.Fatalf("only %d corpus plan pairs share a root", len(cases))
	}

	base := agreementTree(t)
	for _, name := range slices.Sorted(maps.Keys(namedSequences)) {
		cases = append(cases, patchCase{name, base, hierarchy.Patch{Ops: namedSequences[name]}})
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 240; i++ {
		ops := make([]hierarchy.Op, 1+rng.Intn(8))
		for k := range ops {
			ops[k] = hostileOp(rng)
		}
		cases = append(cases, patchCase{fmt.Sprintf("hostile-%d", i), base, hierarchy.Patch{Ops: ops}})
	}

	for _, c := range cases {
		checkTargetsAgree(t, c.name, c.from, c.patch)
	}
	t.Logf("%d patches checked", len(cases))
}

// agreementTree is root → {a1 → {s1, s2}, s3}, with a link override on s3.
func agreementTree(t *testing.T) *hierarchy.Hierarchy {
	t.Helper()
	h := hierarchy.New("agree")
	root, _ := h.AddRoot("root", 500)
	a1, err := h.AddAgent(root, "a1", 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"s1", "s2"} {
		if _, err := h.AddServer(a1, s, 200); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.AddServer(root, "s3", 150, 40); err != nil {
		t.Fatal(err)
	}
	return h
}

func add(name, parent string, role hierarchy.Role, power, link float64) hierarchy.Op {
	return hierarchy.Op{Kind: hierarchy.OpAdd, Name: name, Parent: parent, Role: role, Power: power, Bandwidth: link}
}

func setPower(name string, power, link float64) hierarchy.Op {
	return hierarchy.Op{Kind: hierarchy.OpSetPower, Name: name, Power: power, Bandwidth: link}
}

func op(kind hierarchy.OpKind, name, parent string) hierarchy.Op {
	return hierarchy.Op{Kind: kind, Name: name, Parent: parent}
}

// namedSequences pin each rule an op is judged by, one refusal per
// sequence after a legal prefix where one is needed.
var namedSequences = map[string][]hierarchy.Op{
	"set-power negative link":      {setPower("s1", 250, -1)},
	"set-power NaN power":          {setPower("s1", math.NaN(), 0)},
	"set-power +Inf power":         {setPower("s1", math.Inf(1), 0)},
	"set-power +Inf link":          {setPower("s1", 250, math.Inf(1))},
	"set-power link only":          {setPower("s3", 150, 0), setPower("s1", 200, 25)},
	"set-power root":               {setPower("root", 450, 60)},
	"add empty name":               {add("", "root", hierarchy.RoleServer, 100, 0)},
	"add negative link":            {add("n1", "root", hierarchy.RoleServer, 100, -3)},
	"add NaN power":                {add("n1", "root", hierarchy.RoleServer, math.NaN(), 0)},
	"add NaN link":                 {add("n1", "root", hierarchy.RoleAgent, 100, math.NaN())},
	"add zero power":               {add("n1", "a1", hierarchy.RoleServer, 0, 0)},
	"add unknown role":             {add("n1", "a1", hierarchy.Role(2), 100, 0)},
	"add duplicate":                {add("n1", "a1", hierarchy.RoleServer, 100, 0), add("n1", "root", hierarchy.RoleServer, 100, 0)},
	"add existing":                 {add("s2", "root", hierarchy.RoleServer, 100, 0)},
	"add under server":             {add("n1", "s3", hierarchy.RoleServer, 100, 0)},
	"add under unknown":            {add("n1", "ghost", hierarchy.RoleServer, 100, 0)},
	"demote childless root":        {op(hierarchy.OpRemove, "s3", ""), op(hierarchy.OpRemove, "s1", ""), op(hierarchy.OpRemove, "s2", ""), op(hierarchy.OpRemove, "a1", ""), op(hierarchy.OpDemote, "root", "")},
	"demote agent with children":   {op(hierarchy.OpDemote, "a1", "")},
	"demote server":                {op(hierarchy.OpDemote, "s1", "")},
	"promote root":                 {op(hierarchy.OpPromote, "root", "")},
	"promote agent":                {op(hierarchy.OpPromote, "a1", "")},
	"remove root":                  {op(hierarchy.OpRemove, "root", "")},
	"remove agent with children":   {op(hierarchy.OpRemove, "a1", "")},
	"remove unknown":               {op(hierarchy.OpRemove, "ghost", "")},
	"reparent under itself":        {op(hierarchy.OpReparent, "a1", "a1")},
	"reparent under own subtree":   {add("n1", "a1", hierarchy.RoleAgent, 100, 0), op(hierarchy.OpReparent, "a1", "n1")},
	"reparent root":                {op(hierarchy.OpReparent, "root", "a1")},
	"reparent under server":        {op(hierarchy.OpReparent, "s1", "s3")},
	"reparent to same parent":      {op(hierarchy.OpReparent, "s1", "a1"), op(hierarchy.OpReparent, "s3", "root")},
	"promote, fill, demote, drain": {op(hierarchy.OpPromote, "s3", ""), op(hierarchy.OpReparent, "s1", "s3"), op(hierarchy.OpDemote, "s3", ""), op(hierarchy.OpRemove, "s1", ""), op(hierarchy.OpDemote, "s3", "")},
	"unknown kind":                 {{Kind: hierarchy.OpKind(6), Name: "s1"}},
}

// hostileOp draws one op over the agreement tree's names, two fresh ones,
// the empty name and a stranger, with powers and links from both sides of
// the legal range. Legal values are drawn more often than hostile ones so
// that sequences reach past their first op.
func hostileOp(rng *rand.Rand) hierarchy.Op {
	names := []string{"root", "a1", "s1", "s2", "s3", "n1", "n2", "n1", "n2", "", "ghost"}
	powers := []float64{120, 250, 400, 0, -5, math.NaN(), math.Inf(1), math.Inf(-1)}
	links := []float64{0, 0, 30, 80, -1, math.NaN(), math.Inf(1)}
	draw := func(xs []float64, legal int) float64 {
		if rng.Intn(4) > 0 {
			return xs[rng.Intn(legal)]
		}
		return xs[rng.Intn(len(xs))]
	}
	kind := hierarchy.OpKind(rng.Intn(6))
	if rng.Intn(40) == 0 {
		kind = hierarchy.OpKind(6 + rng.Intn(2))
	}
	role := hierarchy.Role(rng.Intn(2))
	if rng.Intn(20) == 0 {
		role = hierarchy.Role(2)
	}
	return hierarchy.Op{
		Kind:      kind,
		Name:      names[rng.Intn(len(names))],
		Parent:    names[rng.Intn(len(names))],
		Power:     draw(powers, 3),
		Bandwidth: draw(links, 4),
		Role:      role,
	}
}

// checkTargetsAgree applies p from the tree from to each interpreter and
// compares the accepted prefix, the refusal and the resulting tree with
// the Apply fold's.
func checkTargetsAgree(t *testing.T, name string, from *hierarchy.Hierarchy, p hierarchy.Patch) {
	t.Helper()
	want, accepted := from, 0
	var refusal error
	for _, op := range p.Ops {
		next, err := hierarchy.Apply(want, hierarchy.Patch{Ops: []hierarchy.Op{op}})
		if err != nil {
			refusal = err
			break
		}
		want, accepted = next, accepted+1
	}
	agree := func(target string, n int, err error, got *hierarchy.Hierarchy) {
		t.Helper()
		switch {
		case n != accepted:
			t.Errorf("%s: %s accepted %d op(s), Apply %d (%v / %v)\n%s", name, target, n, accepted, err, refusal, p)
		case (err == nil) != (refusal == nil):
			t.Errorf("%s: %s says %v, Apply says %v\n%s", name, target, err, refusal, p)
		case err != nil && innermost(err) != innermost(refusal):
			t.Errorf("%s: %s refuses op %d with %q, Apply with %q", name, target, n, innermost(err), innermost(refusal))
		case !hierarchy.Equivalent(got, want):
			t.Errorf("%s: %s tree differs from Apply's\n%s:\n%s\nApply:\n%s", name, target, target, got, want)
		}
	}

	m, err := sim.NewManaged(from, model.DIETDefaults(), testBandwidth, testWapp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.ApplyPatch(p)
	agree("sim", n, err, m.Snapshot())

	sys, err := runtime.Deploy(from, runtime.NewChanTransport(), runtime.Options{
		Costs: model.DIETDefaults(), Bandwidth: testBandwidth, Wapp: testWapp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	n, err = hierarchy.ApplyEach(sys, p)
	agree("runtime", n, err, sys.Snapshot())
}

// innermost is the message of the error at the bottom of err's wrap chain:
// the verdict itself, without the prefixes each layer adds.
func innermost(err error) string {
	for errors.Unwrap(err) != nil {
		err = errors.Unwrap(err)
	}
	return err.Error()
}
