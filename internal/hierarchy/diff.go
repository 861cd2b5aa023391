package hierarchy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// This file implements the reconfiguration patch engine: the minimal edit
// script turning one deployment hierarchy into another. The autonomic
// control loop (internal/autonomic) diffs the currently deployed tree
// against a freshly replanned one and applies the resulting patch to the
// live middleware instead of tearing it down — the point of live
// reconfiguration is that the patch is much smaller than the deployment.
//
// Nodes are identified by their physical node name: a node present in both
// trees is the *same* deployed element, possibly moved (reparented),
// re-roled (promoted/demoted), or re-rated (power drift learned by the
// monitor). Nodes present only in the new tree are added; nodes present
// only in the old tree are removed.
//
// Step judges one op; Apply folds it over a patch. The reconfiguration
// targets (internal/sim, internal/runtime) call Step too and only carry out
// what it accepts, so the prefix a target accepted replays through Apply to
// the tree it runs: that is how the controller tracks what it deployed.

// OpKind enumerates the patch operations.
type OpKind int

const (
	// OpPromote converts a deployed server into an agent (so it can accept
	// children attached by later ops).
	OpPromote OpKind = iota
	// OpAdd deploys a new element (agent or server) under Parent.
	OpAdd
	// OpReparent moves an element (and, for agents, its whole subtree)
	// under a new parent.
	OpReparent
	// OpSetPower updates the recorded computing power of an element
	// (effective power learned from observed service times).
	OpSetPower
	// OpRemove undeploys a childless element.
	OpRemove
	// OpDemote converts a childless agent back into a server.
	OpDemote
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpPromote:
		return "promote"
	case OpAdd:
		return "add"
	case OpReparent:
		return "reparent"
	case OpSetPower:
		return "set-power"
	case OpRemove:
		return "remove"
	case OpDemote:
		return "demote"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one edit of a reconfiguration patch.
type Op struct {
	// Kind selects the operation.
	Kind OpKind
	// Name is the physical node name of the element operated on.
	Name string
	// Parent is the destination parent name (OpAdd, OpReparent).
	Parent string
	// Power is the node power (OpAdd, OpSetPower).
	Power float64
	// Bandwidth is the node's link bandwidth override (OpAdd, OpSetPower;
	// zero = platform default). OpSetPower always carries the target
	// node's bandwidth alongside its power so Apply(old, Diff(old, new))
	// converges to Equivalent(new) even when only the link changed.
	Bandwidth float64
	// Role is the element role (OpAdd only).
	Role Role
}

// String renders the op compactly for logs and status reports.
func (o Op) String() string {
	switch o.Kind {
	case OpAdd:
		if o.Bandwidth > 0 {
			return fmt.Sprintf("add %s %s under %s (w=%g, bw=%g)", o.Role, o.Name, o.Parent, o.Power, o.Bandwidth)
		}
		return fmt.Sprintf("add %s %s under %s (w=%g)", o.Role, o.Name, o.Parent, o.Power)
	case OpReparent:
		return fmt.Sprintf("reparent %s under %s", o.Name, o.Parent)
	case OpSetPower:
		return fmt.Sprintf("set-power %s w=%g", o.Name, o.Power)
	default:
		return fmt.Sprintf("%s %s", o.Kind, o.Name)
	}
}

// Patch is a deterministic edit script: applying it to the hierarchy it was
// diffed from yields a tree equivalent to the target hierarchy.
type Patch struct {
	Ops []Op
}

// Len returns the number of edits. The autonomic loop compares it against
// the element count of a full deployment to prove a patch beats a redeploy.
func (p Patch) Len() int { return len(p.Ops) }

// String renders one op per line.
func (p Patch) String() string {
	var b strings.Builder
	for _, op := range p.Ops {
		fmt.Fprintf(&b, "%s\n", op)
	}
	return b.String()
}

// ErrRootChanged reports that the two hierarchies have different root
// elements. A root swap cannot be expressed as an in-place patch (every
// client addresses the root by name), so callers fall back to a full
// redeploy.
var ErrRootChanged = errors.New("hierarchy: root changed; patch cannot apply, full redeploy required")

// Diff computes the minimal deterministic edit script turning old into a
// tree equivalent to new. Ops are emitted in an order that is always
// applicable mid-flight on a live system:
//
//  1. promotes (existing servers that must accept children),
//  2. adds, in preorder of the new tree (parents before children),
//  3. reparents, in preorder of the new tree (destinations are final),
//  4. power updates, in preorder of the new tree,
//  5. removes, in postorder of the old tree (children before parents),
//  6. demotes (agents whose children are all gone by now).
func Diff(old, new *Hierarchy) (Patch, error) {
	if err := old.Validate(Structural); err != nil {
		return Patch{}, fmt.Errorf("hierarchy: diff old: %w", err)
	}
	if err := new.Validate(Structural); err != nil {
		return Patch{}, fmt.Errorf("hierarchy: diff new: %w", err)
	}
	if old.MustNode(old.Root()).Name != new.MustNode(new.Root()).Name {
		return Patch{}, ErrRootChanged
	}

	oldByName := indexByName(old)
	newByName := indexByName(new)

	var patch Patch

	// 1. Promotes.
	new.Walk(func(n Node) {
		if o, ok := oldByName[n.Name]; ok && o.Role == RoleServer && n.Role == RoleAgent {
			patch.Ops = append(patch.Ops, Op{Kind: OpPromote, Name: n.Name})
		}
	})
	// 2. Adds (preorder: a new node's parent is either pre-existing or was
	// added by an earlier op).
	new.Walk(func(n Node) {
		if _, ok := oldByName[n.Name]; ok || n.ID == new.Root() {
			return
		}
		parent := new.MustNode(n.Parent).Name
		patch.Ops = append(patch.Ops, Op{Kind: OpAdd, Name: n.Name, Parent: parent, Power: n.Power, Bandwidth: n.Bandwidth, Role: n.Role})
	})
	// 3. Reparents.
	new.Walk(func(n Node) {
		o, ok := oldByName[n.Name]
		if !ok || n.ID == new.Root() {
			return
		}
		oldParent := old.MustNode(o.Parent).Name
		newParent := new.MustNode(n.Parent).Name
		if oldParent != newParent {
			patch.Ops = append(patch.Ops, Op{Kind: OpReparent, Name: n.Name, Parent: newParent})
		}
	})
	// 4. Power (and link) updates: the op carries both target values so
	// replaying it restores the full backing, bandwidth-only changes
	// included.
	new.Walk(func(n Node) {
		if o, ok := oldByName[n.Name]; ok && (o.Power != n.Power || o.Bandwidth != n.Bandwidth) {
			patch.Ops = append(patch.Ops, Op{Kind: OpSetPower, Name: n.Name, Power: n.Power, Bandwidth: n.Bandwidth})
		}
	})
	// 5. Removes, children before parents.
	postorderWalk(old, old.Root(), func(n Node) {
		if _, ok := newByName[n.Name]; !ok {
			patch.Ops = append(patch.Ops, Op{Kind: OpRemove, Name: n.Name})
		}
	})
	// 6. Demotes.
	new.Walk(func(n Node) {
		if o, ok := oldByName[n.Name]; ok && o.Role == RoleAgent && n.Role == RoleServer {
			patch.Ops = append(patch.Ops, Op{Kind: OpDemote, Name: n.Name})
		}
	})
	return patch, nil
}

func indexByName(h *Hierarchy) map[string]Node {
	m := make(map[string]Node, h.Len())
	h.Walk(func(n Node) { m[n.Name] = n })
	return m
}

func postorderWalk(h *Hierarchy, id int, visit func(n Node)) {
	n := h.MustNode(id)
	for _, c := range n.Children {
		postorderWalk(h, c, visit)
	}
	visit(n)
}

// Step checks one op against h and returns the patched copy, leaving h
// untouched. It is the only judge of an op's legality: Apply folds it over
// a patch, and the reconfiguration targets (the simulator's Managed, the
// live runtime's System) call it before they carry an op out, so all three
// accept the same ops and refuse the rest with the same error. An op is
// refused when
//
//   - it names an unknown node, adds a name already deployed, or adds an
//     empty name or an unknown role;
//   - its power is not finite and positive, or its link is negative or not
//     finite (add, set-power);
//   - its parent is unknown or not an agent, or a reparent would move a
//     node into its own subtree;
//   - it removes, reparents, promotes or demotes the root;
//   - it removes or demotes a node that still has children;
//   - it promotes a non-server or demotes a non-agent.
//
// h must be structurally valid, as every tree this package builds is.
func Step(h *Hierarchy, op Op) (*Hierarchy, error) {
	out := h.Clone()
	if err := out.step(op); err != nil {
		return nil, err
	}
	return out, nil
}

// Apply replays the patch on a copy of h and returns the patched hierarchy:
// Step folded over the ops, all or nothing. h is not modified. A patch that
// Apply accepts is accepted op by op by every reconfiguration target.
func Apply(h *Hierarchy, p Patch) (*Hierarchy, error) {
	if err := h.Validate(Structural); err != nil {
		return nil, fmt.Errorf("hierarchy: apply: %w", err)
	}
	out := h.Clone()
	if _, err := ApplyEach(out, p); err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	return out, nil
}

// ApplyOp carries out op on h in place, as Step judges it; a refused op
// leaves h as it was. It makes a tree one more reconfiguration target.
func (h *Hierarchy) ApplyOp(op Op) error { return h.step(op) }

// ApplyEach applies a patch to a reconfiguration target op by op, stopping
// at the first op the target refuses; the count says how many ops it
// applied. It is the one fold of a patch over a tree, the simulator's
// Managed and the runtime's System.
func ApplyEach(target interface{ ApplyOp(Op) error }, p Patch) (int, error) {
	for i, op := range p.Ops {
		if err := target.ApplyOp(op); err != nil {
			return i, fmt.Errorf("patch op %d (%s): %w", i, op, err)
		}
	}
	return len(p.Ops), nil
}

// step judges op against h and, once every check has passed, applies it in
// place; a refused op leaves h as it was.
func (h *Hierarchy) step(op Op) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("hierarchy: %s %q: "+format, append([]any{op.Kind, op.Name}, args...)...)
	}
	if op.Kind < OpPromote || op.Kind > OpDemote {
		return fmt.Errorf("hierarchy: unknown op kind %v", op.Kind)
	}
	n, found := h.Lookup(op.Name)
	switch {
	case op.Kind == OpAdd && found:
		return fail("already deployed")
	case op.Kind == OpAdd && op.Role != RoleAgent && op.Role != RoleServer:
		return fail("unknown role %d", int(op.Role))
	case op.Kind != OpAdd && !found:
		return fail("unknown node")
	case op.Kind != OpAdd && op.Kind != OpSetPower && n.Parent == -1:
		return fail("is the root")
	}
	parent := -1
	if op.Kind == OpAdd || op.Kind == OpReparent {
		p, ok := h.Lookup(op.Parent)
		switch {
		case !ok:
			return fail("unknown parent %q", op.Parent)
		case p.Role != RoleAgent:
			return fail("parent %q is a server", op.Parent)
		}
		for a := p.ID; op.Kind == OpReparent && a != -1; a = h.nodes[a].Parent {
			if a == n.ID {
				return fail("parent %q is in its own subtree", op.Parent)
			}
		}
		parent = p.ID
	}
	if op.Kind == OpAdd || op.Kind == OpSetPower {
		if err := checkNode(op.Name, op.Power); err != nil {
			return err
		}
		if err := checkLink(op.Name, op.Bandwidth); err != nil {
			return err
		}
	}

	switch op.Kind {
	case OpPromote:
		if n.Role != RoleServer {
			return fail("not a server")
		}
		h.nodes[n.ID].Role = RoleAgent
	case OpDemote:
		if n.Role != RoleAgent {
			return fail("not an agent")
		}
		if len(n.Children) != 0 {
			return fail("still has %d children", len(n.Children))
		}
		h.nodes[n.ID].Role = RoleServer
	case OpSetPower:
		h.nodes[n.ID].Power, h.nodes[n.ID].Bandwidth = op.Power, op.Bandwidth
	case OpAdd:
		id := len(h.nodes)
		h.nodes = append(h.nodes, Node{ID: id, Name: op.Name, Power: op.Power, Bandwidth: op.Bandwidth, Role: op.Role, Parent: parent})
		h.nodes[parent].Children = append(h.nodes[parent].Children, id)
	case OpReparent:
		h.detach(n.ID)
		h.nodes[n.ID].Parent = parent
		h.nodes[parent].Children = append(h.nodes[parent].Children, n.ID)
	case OpRemove:
		if len(n.Children) != 0 {
			return fail("still has %d children", len(n.Children))
		}
		h.detach(n.ID)
		h.drop(n.ID)
	}
	return nil
}

// detach drops id from its parent's children.
func (h *Hierarchy) detach(id int) {
	p := &h.nodes[h.nodes[id].Parent]
	for i, c := range p.Children {
		if c == id {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			return
		}
	}
}

// drop removes the detached node id and renumbers the nodes after it, so
// IDs stay dense.
func (h *Hierarchy) drop(id int) {
	h.nodes = append(h.nodes[:id], h.nodes[id+1:]...)
	shift := func(x int) int {
		if x > id {
			return x - 1
		}
		return x
	}
	h.root = shift(h.root)
	for i := range h.nodes {
		n := &h.nodes[i]
		n.ID, n.Parent = i, shift(n.Parent)
		for j, c := range n.Children {
			n.Children[j] = shift(c)
		}
	}
}

// Equivalent reports whether two hierarchies describe the same deployment:
// same nodes (by name), same roles and powers, same parent/child structure.
// Child order is ignored — it is an artifact of patch-application order, not
// a property of the deployment.
func Equivalent(a, b *Hierarchy) bool {
	if a.Len() != b.Len() || a.Root() == -1 || b.Root() == -1 {
		return a.Len() == b.Len() && a.Root() == -1 && b.Root() == -1
	}
	bByName := indexByName(b)
	var eq func(aID, bID int) bool
	eq = func(aID, bID int) bool {
		an, bn := a.MustNode(aID), b.MustNode(bID)
		if an.Name != bn.Name || an.Role != bn.Role || an.Power != bn.Power || an.Bandwidth != bn.Bandwidth {
			return false
		}
		if len(an.Children) != len(bn.Children) {
			return false
		}
		aKids := childNames(a, an)
		bKids := childNames(b, bn)
		for i := range aKids {
			if aKids[i] != bKids[i] {
				return false
			}
		}
		for _, name := range aKids {
			ac := -1
			for _, c := range an.Children {
				if a.MustNode(c).Name == name {
					ac = c
					break
				}
			}
			bc := bByName[name].ID
			if !eq(ac, bc) {
				return false
			}
		}
		return true
	}
	return eq(a.Root(), b.Root())
}

func childNames(h *Hierarchy, n Node) []string {
	names := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		names = append(names, h.MustNode(c).Name)
	}
	sort.Strings(names)
	return names
}
