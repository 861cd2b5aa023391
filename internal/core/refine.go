package core

import (
	"context"
	"slices"

	"adept/internal/hierarchy"
	"adept/internal/obs"
)

// SwapRefiner is a post-planning local-search extension (beyond the paper's
// Algorithm 1, in the direction its future-work section sketches): it takes
// Algorithm 1's finished plan and repeatedly applies the best strictly
// improving move from three families:
//
//   - swap: an agent and a weaker deployed server exchange backings. On
//     service-limited deployments this releases powerful nodes from
//     scheduling duty back into serving, which Algorithm 1 cannot do
//     because it always drafts the most powerful nodes as agents first.
//   - drop: remove a weak leaf server. Every server pays the Wpre
//     prediction cost on every request and the weakest server can carry
//     the prediction bottleneck (Eq. 14), so on hub-dominated pools
//     shedding a weak server raises both phases at once — the exhaustive
//     optimum on such pools visibly leaves nodes unused.
//   - attach: deploy an unused pool node as a new server leaf (the
//     inverse of drop). Swaps change which nodes fill the current shape
//     and drops shrink it, but neither can re-grow a deployment after a
//     swap opened service headroom — on heterogeneous-link platforms the
//     planner's small seed shapes (e.g. its one-agent/one-server pair
//     fallback) stay optimal only until a swap frees a fast-linked
//     agent, after which attaching freed pool nodes is the move that
//     escapes the small-deployment basin.
//
// The refiner plans Algorithm 1 itself and never edits that plan's tree:
// it refines its own record of the deployment (refinement) and builds the
// refined tree once, with the builder of every Algorithm 1 answer. It
// returns the refined plan only when that plan beats Algorithm 1's in the
// portfolio's order (Plan.Beats); otherwise it returns Algorithm 1's plan
// as it is, under its own name. The loop is bounded by two rounds per
// pool node and polls ctx once a round.
//
// Every candidate move is scored with one O(log n) evaluator what-if
// (RhoAfterSwap / RhoAfterDrop / RhoAfterAttach) instead of the clone +
// full-model evaluation of the naive formulation; swaps never change the
// tree shape and drops are validated by a degree check, so no
// per-candidate validation pass is needed either.
type SwapRefiner struct{}

// Name implements Planner.
func (*SwapRefiner) Name() string { return "heuristic+swap" }

// PlanContext implements Planner: Algorithm 1's plan, refined. The
// request is resolved once, here, for both.
func (r *SwapRefiner) PlanContext(ctx context.Context, req Request) (*Plan, error) {
	req, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	tr := obs.TraceFrom(ctx)
	endInner := tr.Phase("inner_plan")
	plan, err := NewHeuristic().PlanContext(ctx, req)
	endInner()
	if err != nil {
		return nil, err
	}
	rf := newRefinement(req, plan.Hierarchy)
	capped := plan.Capped

	moves := int64(0)
	endRefine := tr.Phase("refine")
	round := 0
	for ; round < 2*req.Columns.Len(); round++ {
		if err := CheckContext(ctx, r.Name()); err != nil {
			return nil, err
		}
		next, ok := rf.bestMove(capped)
		if !ok {
			break
		}
		capped = next
		moves++
	}
	endRefine()
	tr.Count("refine_rounds", int64(round))
	tr.Count("refine_moves", moves)
	if moves > 0 {
		refined, err := build(r.Name(), req, rf.col[0], rf.ops())
		if err != nil || refined.Beats(plan) {
			return refined, err
		}
	}
	plan.Planner = r.Name()
	return plan, nil
}

// refinement is the swap refiner's one record of the deployment it
// refines: the evaluator, whose node table holds each node's role, degree
// and backing spec, and beside it each node's parent and backing column,
// and each column's node. IDs are dense, the root is 0, and a parent's ID
// is below its children's.
type refinement struct {
	req    Request
	ev     *Evaluator
	parent []int // per ID: the parent's ID, -1 for the root
	col    []int // per ID: the pool column backing the node
	node   []int // per column: the ID of the node it backs, or -1 if unused
}

// newRefinement records Algorithm 1's deployment h in one pass over its
// nodes, in ID order.
func newRefinement(req Request, h *hierarchy.Hierarchy) *refinement {
	rf := &refinement{
		req:  req,
		ev:   NewEvaluator(req.Costs, req.Columns.Bandwidth, req.Wapp),
		node: slices.Repeat([]int{-1}, req.Columns.Len()),
	}
	for id := range h.Len() {
		n := h.MustNode(id)
		c, _ := req.Columns.Lookup(n.Name) // Finalize checked h against the columns
		rf.add(n.Parent, c, n.Role == hierarchy.RoleAgent)
	}
	return rf
}

// add records the node at column c under parent with the next ID.
func (rf *refinement) add(parent, c int, agent bool) {
	id := len(rf.col)
	power, link := rf.req.Columns.Spec(c)
	if agent {
		rf.ev.AddAgent(id, parent, power, link)
	} else {
		rf.ev.AddServer(id, parent, power, link)
	}
	rf.parent = append(rf.parent, parent)
	rf.col = append(rf.col, c)
	rf.node[c] = id
}

// ops returns the record as build's ops, in ID order: each non-root node
// attached under its parent, and promoted at once when it is an agent.
// The model sums server powers in ID order, so ρ depends on it to the
// last bit.
func (rf *refinement) ops() []growthOp {
	ops := make([]growthOp, 0, len(rf.col))
	for id := 1; id < len(rf.col); id++ {
		ops = append(ops, growthOp{id: rf.parent[id], col: rf.col[id]})
		if rf.ev.nodes[id].role == roleAgent {
			ops = append(ops, growthOp{promote: true, id: id})
		}
	}
	return ops
}

// The move families, in the order bestMove scans them.
const (
	noMove = iota
	swapMove
	dropMove
	attachMove
)

// bestMove scores every swap, drop and attach candidate with an evaluator
// what-if and applies the single best one whose demand-capped ρ strictly
// beats cur, returning that ρ. ok is false when nothing improves. Agents
// are scanned in ascending ID order, a swap's servers in ascending column
// order, drops in ascending ID order and attaches over the unused columns
// in ascending order, each against every agent; a later candidate wins
// only by strictly beating an earlier one.
func (rf *refinement) bestMove(cur float64) (float64, bool) {
	ev, demand := rf.ev, rf.req.Demand
	nodes := ev.nodes
	move, a, b := noMove, -1, -1
	for aid := range nodes {
		if nodes[aid].role != roleAgent {
			continue
		}
		for _, sid := range rf.node {
			// Only release power, never hoard more of it.
			if sid < 0 || nodes[sid].role != roleServer || nodes[sid].power >= nodes[aid].power {
				continue
			}
			if rho := demand.Cap(ev.RhoAfterSwap(aid, sid)); rho > cur {
				move, a, b, cur = swapMove, aid, sid, rho
			}
		}
	}
	for sid := range nodes {
		if nodes[sid].role != roleServer {
			continue
		}
		// The parent must stay shape-valid: one child for the root, two
		// for any other agent.
		if p := rf.parent[sid]; nodes[p].degree > 2 || p == 0 && nodes[p].degree > 1 {
			if rho := demand.Cap(ev.RhoAfterDrop(sid, p)); rho > cur {
				move, a, cur = dropMove, sid, rho
			}
		}
	}
	for c, id := range rf.node {
		if id >= 0 {
			continue
		}
		power, link := rf.req.Columns.Spec(c)
		for aid := range nodes {
			if nodes[aid].role != roleAgent {
				continue
			}
			if rho := demand.Cap(ev.RhoAfterAttach(aid, power, link)); rho > cur {
				move, a, b, cur = attachMove, aid, c, rho
			}
		}
	}

	switch move {
	case swapMove:
		// The agent and the server exchange columns; powers and links
		// travel with them.
		ac, sc := rf.col[a], rf.col[b]
		power, link := rf.req.Columns.Spec(sc)
		ev.SetBacking(a, power, link)
		power, link = rf.req.Columns.Spec(ac)
		ev.SetBacking(b, power, link)
		rf.col[a], rf.col[b] = sc, ac
		rf.node[ac], rf.node[sc] = b, a
	case dropMove:
		rf.drop(a)
	case attachMove:
		rf.add(a, b, false)
	}
	return cur, move != noMove
}

// drop removes leaf server leaf from the record and renumbers the rest
// depth first, children in ID order, reloading the evaluator in that
// order. The numbering decides later ties (every scan runs in ID order)
// and the order the evaluator sums server powers in, so plans depend on
// it to the last bit.
func (rf *refinement) drop(leaf int) {
	old := *rf
	n := len(old.col)
	size := make([]int, n) // each subtree's node count without the leaf
	for id := n - 1; id > 0; id-- {
		if id != leaf {
			size[id]++
			size[old.parent[id]] += size[id]
		}
	}
	// A node's new ID is the first one free in its parent's range once the
	// subtrees of its earlier siblings are numbered (next). order maps new
	// IDs to old ones; the root keeps 0.
	order, newID, next := make([]int, n-1), make([]int, n), make([]int, n)
	next[0] = 1
	for id := 1; id < n; id++ {
		if p := old.parent[id]; id != leaf {
			newID[id], next[id] = next[p], next[p]+1
			next[p] += size[id]
			order[newID[id]] = id
		}
	}
	rf.node[old.col[leaf]] = -1
	rf.ev, rf.parent, rf.col = NewEvaluator(rf.req.Costs, rf.req.Columns.Bandwidth, rf.req.Wapp), nil, nil
	for _, id := range order {
		parent := old.parent[id]
		if parent >= 0 {
			parent = newID[parent]
		}
		rf.add(parent, old.col[id], old.ev.nodes[id].role == roleAgent)
	}
}
