package core

import (
	"context"

	"adept/internal/hierarchy"
	"adept/internal/obs"
)

// SwapRefiner is a post-planning local-search extension (beyond the paper's
// Algorithm 1, in the direction its future-work section sketches): it takes
// Algorithm 1's finished plan and repeatedly applies the best strictly
// improving move from three families, keeping the tree shape otherwise
// fixed:
//
//   - swap: re-back an agent with a weaker node (a deployed server — the
//     two exchange backings — or an unused pool node). On service-limited
//     deployments this releases powerful nodes from scheduling duty back
//     into serving, which Algorithm 1 cannot do because it always drafts
//     the most powerful nodes as agents first.
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
// The refiner owns the plan it refines: it plans Algorithm 1 itself and
// edits that tree in place. It returns the refined plan only when the
// finalized plan beats Algorithm 1's in the portfolio's order (Plan.Beats);
// otherwise it returns Algorithm 1's plan, under its own name. The loop is
// bounded by two rounds per pool node and polls ctx once a round.
//
// Every candidate move is scored with one O(log n) evaluator what-if
// (RhoAfterSwap / RhoAfterReback / RhoAfterDrop) instead of the clone +
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
	h := plan.Hierarchy
	ev := NewEvaluator(req.Costs, req.Columns.Bandwidth, req.Wapp)
	LoadHierarchy(ev, h)
	capped := plan.Capped

	moves := int64(0)
	endRefine := tr.Phase("refine")
	round := 0
	for ; round < 2*req.Columns.Len(); round++ {
		if err := CheckContext(ctx, r.Name()); err != nil {
			return nil, err
		}
		newH, newCapped, ok := r.bestMove(req, h, ev, capped)
		if !ok {
			break
		}
		h, capped = newH, newCapped
		moves++
	}
	endRefine()
	tr.Count("refine_rounds", int64(round))
	tr.Count("refine_moves", moves)
	if moves > 0 {
		refined, err := Finalize(r.Name(), req, h)
		if err != nil || refined.Beats(plan) {
			return refined, err
		}
		// The moves edited Algorithm 1's tree in place and the evaluator's
		// gain did not survive the model's evaluation: plan it again.
		if plan, err = NewHeuristic().PlanContext(ctx, req); err != nil {
			return nil, err
		}
	}
	plan.Planner = r.Name()
	return plan, nil
}

// bestMove scores every swap and drop candidate with an evaluator what-if
// and applies the single best strictly improving one, returning the
// (possibly replaced) hierarchy. ok is false when nothing improves.
func (r *SwapRefiner) bestMove(req Request, h *hierarchy.Hierarchy, ev *Evaluator, cur float64) (*hierarchy.Hierarchy, float64, bool) {
	cols := req.Columns
	deployed := make(map[int]int, h.Len()) // column index -> node ID
	for _, n := range h.Nodes() {
		if i, ok := cols.Lookup(n.Name); ok {
			deployed[i] = n.ID
		}
	}

	// A candidate is named only if its move wins: over a generated pool a
	// name is minted per call.
	type cand struct {
		node  int // column index
		power float64
		bw    float64 // raw link override (0 = platform default)
		id    int     // deployed server ID, or -1 for an unused pool node
	}
	var cands []cand
	for i := range cols.Len() {
		power, link := cols.Spec(i)
		if id, ok := deployed[i]; ok {
			if h.MustNode(id).Role == hierarchy.RoleServer {
				cands = append(cands, cand{i, power, link, id})
			}
			continue
		}
		cands = append(cands, cand{i, power, link, -1})
	}

	bestAgent := -1
	var bestCand cand
	dropID := -1
	bestRho := cur
	for _, aid := range h.Agents() {
		agent := h.MustNode(aid)
		for _, cd := range cands {
			if cd.power >= agent.Power {
				continue // only release power, never hoard more of it
			}
			var rho float64
			if cd.id >= 0 {
				rho = ev.RhoAfterSwap(aid, cd.id)
			} else {
				rho = ev.RhoAfterReback(aid, cd.power, cd.bw)
			}
			if capped := req.Demand.Cap(rho); capped > bestRho {
				bestAgent, bestCand, dropID, bestRho = aid, cd, -1, capped
			}
		}
	}
	for _, sid := range h.Servers() {
		s := h.MustNode(sid)
		pdeg := h.Degree(s.Parent)
		// The parent must stay shape-valid: one child for the root, two
		// for any other agent.
		min := 2
		if s.Parent == h.Root() {
			min = 1
		}
		if pdeg-1 < min {
			continue
		}
		if capped := req.Demand.Cap(ev.RhoAfterDrop(sid, s.Parent)); capped > bestRho {
			bestAgent, dropID, bestRho = -1, sid, capped
		}
	}
	attachAgent, attachCand := -1, cand{}
	for _, cd := range cands {
		if cd.id >= 0 {
			continue // deployed; only unused pool nodes can be attached
		}
		for _, aid := range h.Agents() {
			if capped := req.Demand.Cap(ev.RhoAfterAttach(aid, cd.power, cd.bw)); capped > bestRho {
				bestAgent, dropID, bestRho = -1, -1, capped
				attachAgent, attachCand = aid, cd
			}
		}
	}

	switch {
	case attachAgent >= 0:
		// Grow: deploy the unused pool node as a server leaf.
		id, err := h.AddServer(attachAgent, cols.NodeName(attachCand.node), attachCand.power, attachCand.bw)
		if err != nil {
			return h, cur, false // cannot happen on validated trees; stop refining
		}
		ev.AddServer(id, attachAgent, attachCand.power, attachCand.bw)
		return h, bestRho, true
	case dropID >= 0:
		// Rebuild without the dropped leaf; IDs shift, so the evaluator's
		// table is reloaded from scratch (drops are rare and O(n)).
		newH := rebuildWithout(h, dropID)
		ev.Reset()
		LoadHierarchy(ev, newH)
		return newH, bestRho, true
	case bestAgent >= 0:
		// Apply the winning swap: re-back the agent with the candidate
		// node; when the candidate is a deployed server the two exchange
		// backings (powers and links travel together), otherwise the
		// agent's old backing leaves the deployment. IDs and node data
		// come from the live hierarchy, so SetBacking cannot fail here.
		agent := h.MustNode(bestAgent)
		_ = h.SetBacking(bestAgent, cols.NodeName(bestCand.node), bestCand.power, bestCand.bw)
		ev.SetBacking(bestAgent, bestCand.power, bestCand.bw)
		if bestCand.id >= 0 {
			_ = h.SetBacking(bestCand.id, agent.Name, agent.Power, agent.Bandwidth)
			ev.SetBacking(bestCand.id, agent.Power, agent.Bandwidth)
		}
		return h, bestRho, true
	}
	return h, cur, false
}

// rebuildWithout returns a copy of h with leaf node drop removed.
func rebuildWithout(h *hierarchy.Hierarchy, drop int) *hierarchy.Hierarchy {
	out := hierarchy.New(h.Name)
	var rec func(id, parent int)
	rec = func(id, parent int) {
		if id == drop {
			return
		}
		n := h.MustNode(id)
		var nid int
		if parent < 0 {
			nid, _ = out.AddRoot(n.Name, n.Power, n.Bandwidth)
		} else if n.Role == hierarchy.RoleAgent {
			nid, _ = out.AddAgent(parent, n.Name, n.Power, n.Bandwidth)
		} else {
			nid, _ = out.AddServer(parent, n.Name, n.Power, n.Bandwidth)
		}
		for _, c := range n.Children {
			rec(c, nid)
		}
	}
	rec(h.Root(), -1)
	return out
}
