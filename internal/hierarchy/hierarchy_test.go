package hierarchy_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
)

// buildSample constructs the canonical test tree:
//
//	root ── a1 ── s1, s2
//	     └─ s3
func buildSample(t *testing.T) *hierarchy.Hierarchy {
	t.Helper()
	h := hierarchy.New("sample")
	root, err := h.AddRoot("root", 500)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := h.AddAgent(root, "a1", 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s1", "s2"} {
		if _, err := h.AddServer(a1, name, 300); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.AddServer(root, "s3", 200); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuildAndStats(t *testing.T) {
	h := buildSample(t)
	if err := h.Validate(hierarchy.Final); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	s := h.ComputeStats()
	if s.Nodes != 5 || s.Agents != 2 || s.Servers != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.Depth != 3 {
		t.Errorf("depth = %d, want 3", s.Depth)
	}
	if s.MinDegree != 2 || s.MaxDegree != 2 {
		t.Errorf("degrees = [%d, %d], want [2, 2]", s.MinDegree, s.MaxDegree)
	}
}

func TestAddErrors(t *testing.T) {
	h := hierarchy.New("x")
	if _, err := h.AddAgent(0, "a", 1); err == nil {
		t.Error("AddAgent with no root should fail")
	}
	root, _ := h.AddRoot("root", 100)
	if _, err := h.AddRoot("root2", 100); err == nil {
		t.Error("second root should fail")
	}
	if _, err := h.AddServer(root, "", 100); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := h.AddServer(root, "s", 0); err == nil {
		t.Error("zero power should fail")
	}
	sid, _ := h.AddServer(root, "s", 100)
	if _, err := h.AddServer(sid, "s2", 100); err == nil {
		t.Error("server as parent should fail")
	}
	if _, err := h.AddServer(99, "s3", 100); err == nil {
		t.Error("out-of-range parent should fail")
	}
}

func TestValidateCatchesShapeViolations(t *testing.T) {
	// A non-root agent with one child violates the paper's invariant.
	h := hierarchy.New("bad")
	root, _ := h.AddRoot("root", 100)
	a1, _ := h.AddAgent(root, "a1", 100)
	if _, err := h.AddServer(a1, "s1", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddServer(root, "s2", 100); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(hierarchy.Structural); err != nil {
		t.Errorf("structurally fine tree rejected: %v", err)
	}
	if err := h.Validate(hierarchy.Final); err == nil {
		t.Error("one-child non-root agent accepted by Final validation")
	}
}

func TestValidateCatchesDuplicateNames(t *testing.T) {
	h := hierarchy.New("dup")
	root, _ := h.AddRoot("n", 100)
	if _, err := h.AddServer(root, "n", 100); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(hierarchy.Structural); err == nil {
		t.Error("duplicate physical node accepted")
	}
}

func TestPromoteAndDemote(t *testing.T) {
	h := hierarchy.New("pd")
	root, _ := h.AddRoot("root", 100)
	sid, _ := h.AddServer(root, "s", 100)
	if err := h.PromoteToAgent(sid); err != nil {
		t.Fatal(err)
	}
	if n := h.MustNode(sid); n.Role != hierarchy.RoleAgent {
		t.Error("promotion did not change role")
	}
	if err := h.PromoteToAgent(sid); err == nil {
		t.Error("double promotion accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	h := buildSample(t)
	cp := h.Clone()
	if _, err := cp.AddServer(cp.Root(), "extra", 100); err != nil {
		t.Fatal(err)
	}
	if h.Len() == cp.Len() {
		t.Error("clone shares state with original")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	h := buildSample(t)
	var sb strings.Builder
	if err := h.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	xml := sb.String()
	for _, frag := range []string{`<deployment name="sample">`, `<agent name="root"`, `<server name="s1"`} {
		if !strings.Contains(xml, frag) {
			t.Errorf("XML missing %q:\n%s", frag, xml)
		}
	}
	back, err := hierarchy.ParseXML(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != h.Len() {
		t.Fatalf("XML round trip: %d nodes, want %d", back.Len(), h.Len())
	}
	if got, want := back.ComputeStats(), h.ComputeStats(); got != want {
		t.Errorf("XML round trip stats %+v, want %+v", got, want)
	}
	// Re-serialising must be byte-identical (stable output).
	var sb2 strings.Builder
	if err := back.WriteXML(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != xml {
		t.Error("XML serialisation not stable across a round trip")
	}
}

func TestParseXMLRejectsGarbage(t *testing.T) {
	if _, err := hierarchy.ParseXML(strings.NewReader("<deployment>")); err == nil {
		t.Error("truncated XML accepted")
	}
	bad := `<deployment name="x"><agent name="a" power="1"><widget name="s" power="1"></widget></agent></deployment>`
	if _, err := hierarchy.ParseXML(strings.NewReader(bad)); err == nil {
		t.Error("unknown element accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	h := buildSample(t)
	var sb strings.Builder
	if err := h.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, frag := range []string{"digraph", "n0 -> n1", "shape=ellipse", "shape=box"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
}

func TestCheckAgainstPlatform(t *testing.T) {
	h := buildSample(t)
	plat := &platform.Platform{
		Name: "p", Bandwidth: 100,
		Nodes: []platform.Node{
			{Name: "root", Power: 500}, {Name: "a1", Power: 400},
			{Name: "s1", Power: 300}, {Name: "s2", Power: 300}, {Name: "s3", Power: 200},
		},
	}
	if err := h.CheckAgainstPlatform(plat); err != nil {
		t.Errorf("consistent deployment rejected: %v", err)
	}
	plat.Nodes[0].Power = 999
	if err := h.CheckAgainstPlatform(plat); err == nil {
		t.Error("power mismatch accepted")
	}
	plat.Nodes = plat.Nodes[1:]
	if err := h.CheckAgainstPlatform(plat); err == nil {
		t.Error("missing pool node accepted")
	}
}

// TestCheckAgainstColumns: a pool in columnar form refuses what its
// expansion refuses — a node it does not hold, a node deployed twice, a
// power or link that is not the node's — in the same words.
func TestCheckAgainstColumns(t *testing.T) {
	cols := &platform.Columns{
		Name: "pool", Bandwidth: 100,
		Powers: make([]float64, 12_000), Links: make([]float64, 12_000),
	}
	for i := range cols.Powers {
		cols.Powers[i], cols.Links[i] = float64(100+i%7), float64(10*(i%3))
	}
	plat := cols.Platform()
	build := func(nodes ...platform.Node) *hierarchy.Hierarchy {
		h := hierarchy.New("d")
		root, err := h.AddRoot(nodes[0].Name, nodes[0].Power, nodes[0].LinkBandwidth)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes[1:] {
			if _, err := h.AddServer(root, n.Name, n.Power, n.LinkBandwidth); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	slower, unlinked, stranger := plat.Nodes[9999], plat.Nodes[10_001], plat.Nodes[5]
	slower.Power--
	unlinked.LinkBandwidth += 5
	stranger.Name = "pool-12000"
	for name, tc := range map[string]struct {
		h    *hierarchy.Hierarchy
		want string
	}{
		"consistent":      {build(plat.Nodes[10_000], plat.Nodes[0], plat.Nodes[9999], plat.Nodes[11_999]), ""},
		"unknown node":    {build(plat.Nodes[1], stranger, slower), `hierarchy: node "pool-12000" not in platform pool`},
		"short name":      {build(plat.Nodes[1], platform.Node{Name: "pool-12", Power: 105}), `hierarchy: node "pool-12" not in platform pool`},
		"node used twice": {build(plat.Nodes[1], plat.Nodes[2], plat.Nodes[1]), `hierarchy: node "pool-0001" not in platform pool`},
		"power mismatch":  {build(plat.Nodes[1], slower, stranger), `hierarchy: node "pool-9999" power mismatch: deployment says 102, platform says 103`},
		"link mismatch":   {build(unlinked, plat.Nodes[1]), `hierarchy: node "pool-10001" link bandwidth mismatch: deployment says 25, platform says 20`},
	} {
		for form, err := range map[string]error{"columns": tc.h.CheckAgainstColumns(cols), "platform": tc.h.CheckAgainstPlatform(plat)} {
			if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && got != tc.want {
				t.Errorf("%s against %s: got %v, want %q", name, form, err, tc.want)
			}
		}
	}
}

func TestModelBridge(t *testing.T) {
	h := buildSample(t)
	agents := h.ModelAgents()
	if len(agents) != 2 {
		t.Fatalf("%d model agents, want 2", len(agents))
	}
	if agents[0].Degree != 2 || agents[1].Degree != 2 {
		t.Errorf("agent degrees %v", agents)
	}
	if servers := h.ModelServers(); len(servers) != 3 {
		t.Fatalf("%d model servers, want 3", len(servers))
	}
	ev := h.Evaluate(model.DIETDefaults(), 100, 16)
	if ev.Rho <= 0 {
		t.Errorf("rho = %g", ev.Rho)
	}
}

// Property: any tree built by a random valid construction sequence passes
// structural validation.
func TestPropertyRandomConstructionValid(t *testing.T) {
	f := func(ops []uint8) bool {
		h := hierarchy.New("prop")
		root, err := h.AddRoot("n0", 100)
		if err != nil {
			return false
		}
		agents := []int{root}
		next := 1
		for _, op := range ops {
			if next > 40 {
				break
			}
			parent := agents[int(op%uint8(len(agents)))%len(agents)]
			name := "n" + string(rune('0'+next/10)) + string(rune('0'+next%10))
			power := float64(op) + 1 // avoid uint8 wrap-around for op = 255
			if op%3 == 0 {
				id, err := h.AddAgent(parent, name, power)
				if err != nil {
					return false
				}
				agents = append(agents, id)
			} else {
				if _, err := h.AddServer(parent, name, power); err != nil {
					return false
				}
			}
			next++
		}
		return h.Validate(hierarchy.Structural) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
