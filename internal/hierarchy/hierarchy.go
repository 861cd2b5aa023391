// Package hierarchy provides the deployment hierarchy data structure of the
// paper: a tree whose internal nodes are agents and whose leaves are
// servers. A root agent has one or more children; every non-root agent has
// exactly one parent and (in a final deployment) two or more children; a
// server has exactly one parent and no children. Agents and servers never
// share a physical node.
//
// The package offers construction, validation, traversal, statistics,
// GoDIET-style XML serialisation (write_xml), and DOT rendering (the
// heuristic's plot_hierarchy step), plus the bridge to the analytic model
// of internal/model.
package hierarchy

import (
	"errors"
	"fmt"
	"strings"

	"adept/internal/model"
	"adept/internal/platform"
)

// Role distinguishes agents from servers.
type Role int

const (
	// RoleAgent marks an internal scheduling node.
	RoleAgent Role = iota
	// RoleServer marks a leaf computational node (SeD in DIET parlance).
	RoleServer
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RoleAgent {
		return "agent"
	}
	return "server"
}

// Node is one deployed middleware element.
type Node struct {
	// ID is the node's index inside the hierarchy (dense, 0-based).
	ID int
	// Name is the underlying physical node's name.
	Name string
	// Power is the physical node's computing power (MFlop/s).
	Power float64
	// Bandwidth is the physical node's link bandwidth in Mb/s; zero means
	// "the platform-wide default", mirroring platform.Node.LinkBandwidth.
	// Deployments planned on homogeneous-link platforms carry zero
	// everywhere, keeping their serialised forms unchanged.
	Bandwidth float64
	// Role says whether the element is an agent or a server.
	Role Role
	// Parent is the parent node ID, or -1 for the root.
	Parent int
	// Children lists child node IDs in insertion order (empty for servers).
	Children []int
}

// Link resolves the node's effective link bandwidth against the default.
func (n Node) Link(def float64) float64 {
	if n.Bandwidth > 0 {
		return n.Bandwidth
	}
	return def
}

// Hierarchy is a deployment tree.
type Hierarchy struct {
	// Name labels the deployment.
	Name  string
	nodes []Node
	root  int
	// arena slab-allocates the nodes' Children backing arrays (see
	// appendChild): growing a deployment one child at a time used to be
	// one heap allocation per attachment, the dominant allocation cost of
	// planning at scale.
	arena []int
}

// New creates an empty hierarchy. The first added agent becomes the root.
func New(name string) *Hierarchy {
	return &Hierarchy{Name: name, root: -1}
}

// Len returns the number of deployed elements.
func (h *Hierarchy) Len() int { return len(h.nodes) }

// Root returns the root agent's ID, or -1 when the hierarchy is empty.
func (h *Hierarchy) Root() int { return h.root }

// Node returns a copy of the node with the given ID.
func (h *Hierarchy) Node(id int) (Node, error) {
	if id < 0 || id >= len(h.nodes) {
		return Node{}, fmt.Errorf("hierarchy: node id %d out of range [0,%d)", id, len(h.nodes))
	}
	return h.nodes[id], nil
}

// MustNode is Node but panics on a bad ID; for use after validation.
func (h *Hierarchy) MustNode(id int) Node {
	n, err := h.Node(id)
	if err != nil {
		panic(err)
	}
	return n
}

// Nodes returns a copy of all nodes in ID order.
func (h *Hierarchy) Nodes() []Node {
	cp := make([]Node, len(h.nodes))
	copy(cp, h.nodes)
	for i := range cp {
		cp[i].Children = append([]int(nil), h.nodes[i].Children...)
	}
	return cp
}

// AddRoot adds the root agent. It fails if a root already exists. The
// optional trailing argument is the node's link bandwidth override (Mb/s,
// zero or omitted = platform default).
func (h *Hierarchy) AddRoot(name string, power float64, linkBW ...float64) (int, error) {
	if h.root != -1 {
		return -1, errors.New("hierarchy: root already present")
	}
	bw, err := pickLink(linkBW)
	if err != nil {
		return -1, err
	}
	if err := checkNode(name, power); err != nil {
		return -1, err
	}
	id := len(h.nodes)
	h.nodes = append(h.nodes, Node{ID: id, Name: name, Power: power, Bandwidth: bw, Role: RoleAgent, Parent: -1})
	h.root = id
	return id, nil
}

// AddAgent adds a non-root agent under parent. The optional trailing
// argument is the node's link bandwidth override.
func (h *Hierarchy) AddAgent(parent int, name string, power float64, linkBW ...float64) (int, error) {
	return h.addChild(parent, name, power, RoleAgent, linkBW)
}

// AddServer adds a server leaf under parent. The optional trailing
// argument is the node's link bandwidth override.
func (h *Hierarchy) AddServer(parent int, name string, power float64, linkBW ...float64) (int, error) {
	return h.addChild(parent, name, power, RoleServer, linkBW)
}

func checkNode(name string, power float64) error {
	if name == "" {
		return errors.New("hierarchy: empty node name")
	}
	if power <= 0 {
		return fmt.Errorf("hierarchy: node %q has non-positive power %g", name, power)
	}
	return nil
}

// pickLink validates the optional link-bandwidth argument of the Add*
// constructors: at most one value, non-negative (zero = inherit default).
func pickLink(linkBW []float64) (float64, error) {
	switch len(linkBW) {
	case 0:
		return 0, nil
	case 1:
		if linkBW[0] < 0 {
			return 0, fmt.Errorf("hierarchy: negative link bandwidth %g", linkBW[0])
		}
		return linkBW[0], nil
	default:
		return 0, fmt.Errorf("hierarchy: at most one link bandwidth, got %d", len(linkBW))
	}
}

func (h *Hierarchy) addChild(parent int, name string, power float64, role Role, linkBW []float64) (int, error) {
	bw, err := pickLink(linkBW)
	if err != nil {
		return -1, err
	}
	if err := checkNode(name, power); err != nil {
		return -1, err
	}
	if parent < 0 || parent >= len(h.nodes) {
		return -1, fmt.Errorf("hierarchy: parent id %d out of range", parent)
	}
	if h.nodes[parent].Role != RoleAgent {
		return -1, fmt.Errorf("hierarchy: parent %q is a server; servers cannot have children", h.nodes[parent].Name)
	}
	id := len(h.nodes)
	h.nodes = append(h.nodes, Node{ID: id, Name: name, Power: power, Bandwidth: bw, Role: role, Parent: parent})
	h.nodes[parent].Children = h.appendChild(h.nodes[parent].Children, id)
	return id, nil
}

// arenaBlock is the slab size (in child IDs) of the Children arena.
const arenaBlock = 1024

// appendChild appends id to a Children slice, drawing fresh capacity from
// the hierarchy's slab arena instead of the heap. Each grant hands out the
// full granted capacity and advances the slab cursor past it, so two
// Children slices never alias: in-cap appends stay inside the owner's
// grant, and over-cap appends either take a new grant (here) or fall back
// to the ordinary heap (append anywhere else in the codebase). Abandoned
// grants are garbage until the hierarchy itself is released — a fine trade
// for one-shot plan construction, which allocates O(slabs) instead of
// O(attachments).
func (h *Hierarchy) appendChild(s []int, id int) []int {
	if len(s) < cap(s) {
		return append(s, id)
	}
	newCap := 2 * cap(s)
	if newCap < 2 {
		newCap = 2
	}
	if len(h.arena)+newCap > cap(h.arena) {
		size := arenaBlock
		if newCap > size {
			size = newCap
		}
		h.arena = make([]int, 0, size)
	}
	used := len(h.arena)
	ns := h.arena[used : used : used+newCap]
	h.arena = h.arena[:used+newCap]
	ns = append(ns, s...)
	return append(ns, id)
}

// PromoteToAgent converts a server into an agent (the heuristic's
// shift_nodes step, used when a server must start accepting children).
func (h *Hierarchy) PromoteToAgent(id int) error {
	if id < 0 || id >= len(h.nodes) {
		return fmt.Errorf("hierarchy: node id %d out of range", id)
	}
	if h.nodes[id].Role == RoleAgent {
		return fmt.Errorf("hierarchy: node %q already an agent", h.nodes[id].Name)
	}
	h.nodes[id].Role = RoleAgent
	return nil
}

// SetBacking re-assigns the physical platform node backing a deployed
// element, keeping the tree shape intact. Planner refiners use it to trade
// node roles (e.g. hand an agent's powerful node back to serving duty).
// The optional trailing argument sets the new backing node's link
// bandwidth; when omitted the element keeps its current one (the common
// case of re-rating the same physical node's power belief).
func (h *Hierarchy) SetBacking(id int, name string, power float64, linkBW ...float64) error {
	if id < 0 || id >= len(h.nodes) {
		return fmt.Errorf("hierarchy: node id %d out of range", id)
	}
	if err := checkNode(name, power); err != nil {
		return err
	}
	if len(linkBW) > 0 {
		bw, err := pickLink(linkBW)
		if err != nil {
			return err
		}
		h.nodes[id].Bandwidth = bw
	}
	h.nodes[id].Name = name
	h.nodes[id].Power = power
	return nil
}

// WithLinkBandwidths returns a copy of the hierarchy with every node's
// link bandwidth replaced by links[name] (missing names reset to zero,
// i.e. the platform default). Use it to re-bind a deployment planned
// against one network description onto the physical links it actually
// runs on — e.g. simulating a uniform-model plan on the real multi-cluster
// network.
func (h *Hierarchy) WithLinkBandwidths(links map[string]float64) (*Hierarchy, error) {
	cp := h.Clone()
	for _, n := range cp.nodes {
		if err := cp.SetBacking(n.ID, n.Name, n.Power, links[n.Name]); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

// Clone returns a deep copy of the hierarchy. Planners snapshot candidate
// deployments this way before speculative growth.
func (h *Hierarchy) Clone() *Hierarchy {
	cp := &Hierarchy{Name: h.Name, root: h.root}
	cp.nodes = make([]Node, len(h.nodes))
	copy(cp.nodes, h.nodes)
	for i := range cp.nodes {
		cp.nodes[i].Children = append([]int(nil), h.nodes[i].Children...)
	}
	return cp
}

// Agents returns the IDs of all agents in ID order.
func (h *Hierarchy) Agents() []int {
	var ids []int
	for _, n := range h.nodes {
		if n.Role == RoleAgent {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Servers returns the IDs of all servers in ID order.
func (h *Hierarchy) Servers() []int {
	var ids []int
	for _, n := range h.nodes {
		if n.Role == RoleServer {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Degree returns the number of children of the given node.
func (h *Hierarchy) Degree(id int) int {
	return len(h.nodes[id].Children)
}

// Depth returns the number of levels in the tree (a lone root has depth 1).
// An empty hierarchy has depth 0.
func (h *Hierarchy) Depth() int {
	if h.root == -1 {
		return 0
	}
	var rec func(id int) int
	rec = func(id int) int {
		max := 0
		for _, c := range h.nodes[id].Children {
			if d := rec(c); d > max {
				max = d
			}
		}
		return max + 1
	}
	return rec(h.root)
}

// Walk visits every node reachable from the root in depth-first preorder.
func (h *Hierarchy) Walk(visit func(n Node)) {
	if h.root == -1 {
		return
	}
	var rec func(id int)
	rec = func(id int) {
		visit(h.nodes[id])
		for _, c := range h.nodes[id].Children {
			rec(c)
		}
	}
	rec(h.root)
}

// ValidationMode selects which invariants Validate enforces.
type ValidationMode int

const (
	// Structural checks tree well-formedness only: one root, consistent
	// parent/child links, servers are leaves, no cycles, all nodes
	// reachable. Planners use this mid-construction.
	Structural ValidationMode = iota
	// Final additionally enforces the paper's deployment shape: every
	// non-root agent has at least two children, every agent has at least
	// one child, and at least one server exists.
	Final
)

// Validate checks the hierarchy invariants under the given mode.
func (h *Hierarchy) Validate(mode ValidationMode) error {
	if len(h.nodes) == 0 {
		return errors.New("hierarchy: empty")
	}
	if h.root < 0 || h.root >= len(h.nodes) {
		return errors.New("hierarchy: no root")
	}
	if h.nodes[h.root].Role != RoleAgent {
		return errors.New("hierarchy: root is not an agent")
	}
	if h.nodes[h.root].Parent != -1 {
		return errors.New("hierarchy: root has a parent")
	}
	seen := make([]bool, len(h.nodes))
	names := make(map[string]bool, len(h.nodes))
	count := 0
	var rec func(id int) error
	rec = func(id int) error {
		if seen[id] {
			return fmt.Errorf("hierarchy: node %d visited twice (cycle or shared child)", id)
		}
		seen[id] = true
		count++
		n := h.nodes[id]
		if names[n.Name] {
			return fmt.Errorf("hierarchy: duplicate physical node %q", n.Name)
		}
		names[n.Name] = true
		if n.Role == RoleServer && len(n.Children) != 0 {
			return fmt.Errorf("hierarchy: server %q has children", n.Name)
		}
		for _, c := range n.Children {
			if c < 0 || c >= len(h.nodes) {
				return fmt.Errorf("hierarchy: node %q has out-of-range child %d", n.Name, c)
			}
			if h.nodes[c].Parent != id {
				return fmt.Errorf("hierarchy: child %q does not point back to parent %q", h.nodes[c].Name, n.Name)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(h.root); err != nil {
		return err
	}
	if count != len(h.nodes) {
		return fmt.Errorf("hierarchy: %d of %d nodes unreachable from root", len(h.nodes)-count, len(h.nodes))
	}
	if mode == Final {
		if len(h.Servers()) == 0 {
			return errors.New("hierarchy: final deployment has no servers")
		}
		for _, id := range h.Agents() {
			n := h.nodes[id]
			if len(n.Children) == 0 {
				return fmt.Errorf("hierarchy: agent %q has no children", n.Name)
			}
			if id != h.root && len(n.Children) < 2 {
				return fmt.Errorf("hierarchy: non-root agent %q has %d child(ren); the paper requires at least two", n.Name, len(n.Children))
			}
		}
	}
	return nil
}

// Stats summarises the shape of a hierarchy.
type Stats struct {
	Nodes     int
	Agents    int
	Servers   int
	Depth     int
	MinDegree int // over agents
	MaxDegree int // over agents
}

// ComputeStats returns the shape summary.
func (h *Hierarchy) ComputeStats() Stats {
	s := Stats{Nodes: len(h.nodes), Depth: h.Depth()}
	first := true
	for _, n := range h.nodes {
		switch n.Role {
		case RoleAgent:
			s.Agents++
			d := len(n.Children)
			if first {
				s.MinDegree, s.MaxDegree = d, d
				first = false
			} else {
				if d < s.MinDegree {
					s.MinDegree = d
				}
				if d > s.MaxDegree {
					s.MaxDegree = d
				}
			}
		case RoleServer:
			s.Servers++
		}
	}
	return s
}

// ModelAgents converts the hierarchy's agents into the analytic model's
// agent views (power + degree + link bandwidth), in agent-ID order.
func (h *Hierarchy) ModelAgents() []model.Agent {
	ids := h.Agents()
	out := make([]model.Agent, 0, len(ids))
	for _, id := range ids {
		n := h.nodes[id]
		out = append(out, model.Agent{Power: n.Power, Degree: len(n.Children), Bandwidth: n.Bandwidth})
	}
	return out
}

// ModelServers converts the hierarchy's servers into the analytic model's
// server views (power + link bandwidth), in server-ID order.
func (h *Hierarchy) ModelServers() []model.Server {
	ids := h.Servers()
	out := make([]model.Server, 0, len(ids))
	for _, id := range ids {
		n := h.nodes[id]
		out = append(out, model.Server{Power: n.Power, Bandwidth: n.Bandwidth})
	}
	return out
}

// Evaluate runs the §3 performance model on this hierarchy; bandwidth is
// the default link bandwidth for nodes without a per-node override.
func (h *Hierarchy) Evaluate(c model.Costs, bandwidth, wapp float64) model.Evaluation {
	return model.EvaluateLinks(c, bandwidth, wapp, h.ModelAgents(), h.ModelServers())
}

// CheckAgainstPlatform verifies that every deployed element maps to a
// distinct node of the platform pool with matching power and link
// bandwidth: it converts the platform into columns (which refuses an
// invalid platform) and checks against those.
func (h *Hierarchy) CheckAgainstPlatform(p *platform.Platform) error {
	c, err := p.Columns()
	if err != nil {
		return err
	}
	return h.CheckAgainstColumns(c)
}

// CheckAgainstColumns verifies that every deployed element maps to a
// distinct node of the pool with matching power and link bandwidth. Each
// deployed name is resolved through Columns.Lookup, so the check costs
// O(deployment) whatever the size of the pool. A node deployed twice is no
// longer in the pool the second time; the earliest failing hierarchy node
// is reported.
func (h *Hierarchy) CheckAgainstColumns(c *platform.Columns) error {
	taken := make(map[int]struct{}, len(h.nodes))
	for i := range h.nodes {
		n := &h.nodes[i]
		j, ok := c.Lookup(n.Name)
		if _, twice := taken[j]; !ok || twice {
			return fmt.Errorf("hierarchy: node %q not in platform pool", n.Name)
		}
		taken[j] = struct{}{}
		switch power, link := c.Spec(j); {
		case power != n.Power:
			return fmt.Errorf("hierarchy: node %q power mismatch: deployment says %g, platform says %g", n.Name, n.Power, power)
		case link != n.Bandwidth:
			return fmt.Errorf("hierarchy: node %q link bandwidth mismatch: deployment says %g, platform says %g", n.Name, n.Bandwidth, link)
		}
	}
	return nil
}

// String renders an indented tree, one node per line.
func (h *Hierarchy) String() string {
	if h.root == -1 {
		return "(empty hierarchy)"
	}
	var b strings.Builder
	var rec func(id, depth int)
	rec = func(id, depth int) {
		n := h.nodes[id]
		if n.Bandwidth > 0 {
			fmt.Fprintf(&b, "%s%s %s (w=%g, bw=%g, d=%d)\n", strings.Repeat("  ", depth), n.Role, n.Name, n.Power, n.Bandwidth, len(n.Children))
		} else {
			fmt.Fprintf(&b, "%s%s %s (w=%g, d=%d)\n", strings.Repeat("  ", depth), n.Role, n.Name, n.Power, len(n.Children))
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(h.root, 0)
	return b.String()
}
