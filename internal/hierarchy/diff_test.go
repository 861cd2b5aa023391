package hierarchy

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// buildTree constructs a hierarchy from a parent->children spec. The first
// entry's parent must be "" (the root). Names starting with "a" are agents,
// everything else servers; powers default to 100 unless given.
func mustAdd(t *testing.T, h *Hierarchy, parent int, name string, power float64, role Role) int {
	t.Helper()
	var id int
	var err error
	if role == RoleAgent {
		id, err = h.AddAgent(parent, name, power)
	} else {
		id, err = h.AddServer(parent, name, power)
	}
	if err != nil {
		t.Fatalf("add %s: %v", name, err)
	}
	return id
}

// star builds root -> (s1..sn).
func star(t *testing.T, servers ...string) *Hierarchy {
	t.Helper()
	h := New("test")
	root, err := h.AddRoot("root", 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		mustAdd(t, h, root, s, 100, RoleServer)
	}
	return h
}

func TestDiffIdenticalIsEmpty(t *testing.T) {
	a := star(t, "s1", "s2", "s3")
	b := star(t, "s1", "s2", "s3")
	p, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatalf("want empty patch, got:\n%s", p)
	}
}

func TestDiffAddRemovePower(t *testing.T) {
	old := star(t, "s1", "s2", "s3")
	new := star(t, "s1", "s2", "s4") // s3 removed, s4 added
	// s1 drifts to half power in the replanned tree.
	for _, n := range new.Nodes() {
		if n.Name == "s1" {
			if err := new.SetBacking(n.ID, "s1", 50); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[OpKind]int{}
	for _, op := range p.Ops {
		kinds[op.Kind]++
	}
	if kinds[OpAdd] != 1 || kinds[OpRemove] != 1 || kinds[OpSetPower] != 1 || p.Len() != 3 {
		t.Fatalf("want 1 add + 1 remove + 1 set-power, got:\n%s", p)
	}
	patched, err := Apply(old, p)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(patched, new) {
		t.Fatalf("patched tree differs from target:\npatched:\n%s\ntarget:\n%s", patched, new)
	}
	if Equivalent(patched, old) {
		t.Fatal("patched tree unexpectedly equivalent to the old tree")
	}
}

func TestDiffPromoteAndReparent(t *testing.T) {
	// old: root -> (s1, s2, s3, s4)
	old := star(t, "s1", "s2", "s3", "s4")
	// new: root -> (s1, s2); s1 promoted to agent holding s3 and s4.
	new := New("test")
	root, _ := new.AddRoot("root", 500)
	a1 := mustAdd(t, new, root, "s1", 100, RoleAgent)
	mustAdd(t, new, root, "s2", 100, RoleServer)
	mustAdd(t, new, a1, "s3", 100, RoleServer)
	mustAdd(t, new, a1, "s4", 100, RoleServer)

	p, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: promote s1, reparent s3 under s1, reparent s4 under s1.
	if p.Len() != 3 || p.Ops[0].Kind != OpPromote || p.Ops[0].Name != "s1" {
		t.Fatalf("unexpected patch:\n%s", p)
	}
	patched, err := Apply(old, p)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(patched, new) {
		t.Fatalf("patched tree differs from target:\npatched:\n%s\ntarget:\n%s", patched, new)
	}
	if err := patched.Validate(Final); err != nil {
		t.Fatalf("patched tree fails final validation: %v", err)
	}
}

func TestDiffDemoteCollapsesSubtree(t *testing.T) {
	// old: root -> (a1(s3, s4), s2); new: root -> (s1, s2) with a1's node
	// demoted back to serving as s1... a1 keeps its name, so: demote a1.
	old := New("test")
	root, _ := old.AddRoot("root", 500)
	a1 := mustAdd(t, old, root, "n1", 100, RoleAgent)
	mustAdd(t, old, root, "s2", 100, RoleServer)
	mustAdd(t, old, a1, "s3", 100, RoleServer)
	mustAdd(t, old, a1, "s4", 100, RoleServer)

	new := star(t, "n1", "s2", "s3")
	// s4 removed; s3 reparented to root; n1 demoted.
	p, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := Apply(old, p)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(patched, new) {
		t.Fatalf("patched tree differs from target:\npatched:\n%s\ntarget:\n%s", patched, new)
	}
	// The demote must come after the subtree is dismantled.
	last := p.Ops[p.Len()-1]
	if last.Kind != OpDemote || last.Name != "n1" {
		t.Fatalf("want trailing demote of n1, got:\n%s", p)
	}
}

func TestDiffRootChanged(t *testing.T) {
	a := star(t, "s1", "s2")
	b := New("test")
	root, _ := b.AddRoot("other", 500)
	mustAdd(t, b, root, "s1", 100, RoleServer)
	mustAdd(t, b, root, "s2", 100, RoleServer)
	if _, err := Diff(a, b); err != ErrRootChanged {
		t.Fatalf("want ErrRootChanged, got %v", err)
	}
}

func TestDiffDeterministic(t *testing.T) {
	old := star(t, "s1", "s2", "s3", "s4", "s5")
	new := New("test")
	root, _ := new.AddRoot("root", 500)
	a1 := mustAdd(t, new, root, "s1", 100, RoleAgent)
	mustAdd(t, new, a1, "s4", 100, RoleServer)
	mustAdd(t, new, a1, "s6", 120, RoleServer)
	mustAdd(t, new, root, "s2", 100, RoleServer)

	p1, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("diff not deterministic:\n%s\nvs\n%s", p1, p2)
	}
}

func TestApplyRejectsBadPatch(t *testing.T) {
	h := star(t, "s1", "s2")
	cases := []struct {
		name string
		op   Op
	}{
		{"remove unknown", Op{Kind: OpRemove, Name: "nope"}},
		{"remove root", Op{Kind: OpRemove, Name: "root"}},
		{"add duplicate", Op{Kind: OpAdd, Name: "s1", Parent: "root", Power: 1, Role: RoleServer}},
		{"attach under server", Op{Kind: OpAdd, Name: "x", Parent: "s1", Power: 1, Role: RoleServer}},
		{"reparent root", Op{Kind: OpReparent, Name: "root", Parent: "s1"}},
		{"demote server", Op{Kind: OpDemote, Name: "s1"}},
		{"promote agent", Op{Kind: OpPromote, Name: "root"}},
		{"zero power", Op{Kind: OpSetPower, Name: "s1", Power: 0}},
		{"NaN power", Op{Kind: OpSetPower, Name: "s1", Power: math.NaN()}},
		{"infinite power", Op{Kind: OpAdd, Name: "x", Parent: "root", Power: math.Inf(1), Role: RoleServer}},
		{"negative link", Op{Kind: OpSetPower, Name: "s1", Power: 1, Bandwidth: -1}},
		{"empty name", Op{Kind: OpAdd, Parent: "root", Power: 1, Role: RoleServer}},
		{"unknown role", Op{Kind: OpAdd, Name: "x", Parent: "root", Power: 1, Role: Role(2)}},
		{"demote root", Op{Kind: OpDemote, Name: "root"}},
		{"unknown kind", Op{Kind: OpKind(6), Name: "s1"}},
	}
	for _, tc := range cases {
		if _, err := Apply(h, Patch{Ops: []Op{tc.op}}); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
		if _, err := Step(h, tc.op); err == nil {
			t.Errorf("%s: Step accepted", tc.name)
		}
	}
	// A cycle is refused at the op that makes it, not after the patch.
	cycle := Patch{Ops: []Op{
		{Kind: OpPromote, Name: "s1"},
		{Kind: OpAdd, Name: "a", Parent: "s1", Power: 1, Role: RoleAgent},
		{Kind: OpReparent, Name: "s1", Parent: "a"},
	}}
	if _, err := Apply(h, cycle); err == nil || !strings.Contains(err.Error(), "patch op 2") {
		t.Errorf("cycle: want a refusal of op 2, got %v", err)
	}
	// The failed Apply calls must not have mutated h.
	if err := h.Validate(Final); err != nil {
		t.Fatalf("source hierarchy corrupted by failed Apply: %v", err)
	}
	if h.Len() != 3 {
		t.Fatalf("source hierarchy mutated: %d nodes", h.Len())
	}
}

// TestPatchedXMLRoundTrip is the reconfiguration analog of the planner's
// write_xml hand-off: apply a patch, emit the patched deployment as GoDIET
// XML, parse it back, and check the round-tripped tree is structurally
// identical to the replanned target.
func TestPatchedXMLRoundTrip(t *testing.T) {
	old := star(t, "s1", "s2", "s3", "s4")
	new := New("test")
	root, _ := new.AddRoot("root", 500)
	a1 := mustAdd(t, new, root, "s1", 100, RoleAgent)
	mustAdd(t, new, a1, "s3", 100, RoleServer)
	mustAdd(t, new, a1, "s5", 140, RoleServer)
	mustAdd(t, new, root, "s2", 100, RoleServer)
	// s4 removed, s5 added, s1 promoted, s3 reparented.

	p, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := Apply(old, p)
	if err != nil {
		t.Fatal(err)
	}
	xml, err := patched.MarshalXMLString()
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := ParseXML(strings.NewReader(xml))
	if err != nil {
		t.Fatalf("re-parse patched XML: %v", err)
	}
	if !Equivalent(reparsed, new) {
		t.Fatalf("XML round-trip of patched tree differs from replanned target:\nround-trip:\n%s\ntarget:\n%s", reparsed, new)
	}
	if !Equivalent(reparsed, patched) {
		t.Fatal("XML round-trip not structurally identical to the patched tree")
	}
}

// TestDiffBandwidthOnlyChange: a link-bandwidth change with identical
// structure, powers, and roles must still produce a convergent patch —
// Apply(old, Diff(old, new)) ends Equivalent to new.
func TestDiffBandwidthOnlyChange(t *testing.T) {
	build := func(serverBW float64) *Hierarchy {
		h := New("bw")
		root, _ := h.AddRoot("root", 400)
		if _, err := h.AddServer(root, "s1", 300, serverBW); err != nil {
			t.Fatal(err)
		}
		if _, err := h.AddServer(root, "s2", 200); err != nil {
			t.Fatal(err)
		}
		return h
	}
	old := build(0)
	target := build(25)
	p, err := Diff(old, target)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 || p.Ops[0].Kind != OpSetPower || p.Ops[0].Bandwidth != 25 {
		t.Fatalf("want one set-power op carrying bw=25, got:\n%s", p)
	}
	patched, err := Apply(old, p)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(patched, target) {
		t.Errorf("patched tree not equivalent to target:\n%s\nvs\n%s", patched, target)
	}
	// And the reverse direction clears the override back to zero.
	back, err := Diff(target, old)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Apply(target, back)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(restored, old) {
		t.Errorf("reverse patch did not restore the original tree")
	}
}
