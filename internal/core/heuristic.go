package core

import (
	"context"
	"fmt"
	"math"

	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/platform"
)

// Heuristic implements Algorithm 1 of the paper: middleware deployment
// planning for heterogeneous nodes — generalised here to heterogeneous
// links as well. Every scheduling/servicing power is computed at the
// node's own link bandwidth (platform.Node.LinkBandwidth, defaulting to
// the platform-wide B), so on multi-cluster grids the sort of Steps 1–2
// drafts agents from nodes with fast local links instead of powerful
// nodes stranded behind slow WAN uplinks. With uniform links every
// computation collapses to the paper's original form, bit for bit.
//
// The pseudo-code in the paper is informal; this implementation keeps its
// macro structure and procedure vocabulary (see procedures.go) and documents
// every interpretation decision:
//
//  1. Nodes are sorted by scheduling power computed against the whole pool
//     (sort_nodes, Steps 1–2). The head of the list becomes the root agent.
//  2. Steps 3–7: if even with a single child the root's scheduling power is
//     below min(single-server servicing power, client demand), the
//     deployment is one agent and one server — any further server would only
//     lower scheduling power.
//  3. Otherwise the hierarchy grows greedily, taking nodes from the sorted
//     list one at a time (Steps 10–38). Each new node is attached as a
//     server under the agent that maximises the resulting demand-capped
//     throughput. When no attachment improves throughput but scheduling
//     power still exceeds servicing power, the most powerful leaf server
//     whose supported_children count exceeds one is converted into an agent
//     (shift_nodes, Steps 16–17) so that growth can continue one level
//     deeper.
//  4. Growth stops when the pool is exhausted, the client demand is met, or
//     throughput starts decreasing (outer while, Step 10). The best
//     deployment snapshot seen is returned (the paper's Steps 28–34 remove
//     the overshooting child; reverting to the best snapshot generalises
//     that trim).
//
// The returned deployment always satisfies the paper's shape invariants
// (hierarchy.Final) and uses the fewest nodes among the snapshots achieving
// the best capped throughput.
//
// Scaling: the growth loop plans through a PlacementEvaluator, so one
// placement step costs O(log n) instead of the Θ(n) model sweep of a naive
// implementation. Growth builds no tree: the evaluator's node table is the
// deployment being grown (a node's ID is its index there, the root 0), and
// the op log records how it was reached, so the best deployment is an
// op-log prefix. Every answer — that prefix, the seed, the star, the pair —
// is a root plus a list of ops, built into a hierarchy once (answer). The
// three placement passes are driven by lazy heaps (gated slack, promotion
// power) that reproduce the paper's linear scans bit-for-bit, including
// their tie-breaking towards lower node IDs.
//
// There is one planner body. It runs over a sortedPool (pool.go): the
// sort_nodes order stored as runs of consecutive nodes sharing one
// (power, link) spec, with every spec scan — sort keys, Steps 3–7,
// the supported_children target, the star and pair snapshots — written
// once over runs and addressing candidates by sorted position. A pool
// ranked node by node has one run per node; a pool built from a
// ClassIndex (classindex.go) has one run per spec class, which is what
// makes million-node catalogue fleets plannable in under a second. Which
// of the two is built is derived from the input (classMinNodes,
// classMinCompression) and cannot change the plan: the scans break every
// tie by position and float accumulations run in sorted order at either
// granularity. A plan runs on the calling goroutine alone, so it is the
// same at any GOMAXPROCS.
type Heuristic struct {
	// naive, when set, plans through the Θ(n)-per-query NaiveEvaluator.
	// Kept for benchmarks and the property tests that pin the incremental
	// evaluator to the reference; NewHeuristic always builds the fast one.
	naive bool
	// mode selects the granularity of the sorted pool.
	mode poolMode
}

// poolMode selects how PlanContext builds the sorted pool.
type poolMode int

const (
	// poolAuto builds the pool from spec classes when it is large and
	// compresses well (see classMinNodes, classMinCompression), node by node
	// otherwise.
	poolAuto poolMode = iota
	// poolNodesOnly always builds one run per node.
	poolNodesOnly
	// poolClassesOnly always builds the pool from spec classes.
	poolClassesOnly
)

// Auto-mode thresholds: the class-backed pool engages at classMinNodes
// nodes when the pool has at most n/classMinCompression distinct specs.
// Below the node floor a per-node pool plans in microseconds anyway; above
// it, the capped index build keeps the probe O(n/classMinCompression) on
// incompressible pools.
const (
	classMinNodes       = 4096
	classMinCompression = 8
)

// NewHeuristic returns the Algorithm 1 planner backed by the incremental
// evaluator, collapsing large spec-repetitive pools to equivalence classes
// automatically.
func NewHeuristic() *Heuristic { return &Heuristic{} }

// NewHeuristicNaive returns the Algorithm 1 planner backed by the
// full-recompute NaiveEvaluator: the pre-incremental cost profile, retained
// as the benchmark and property-test reference. It produces the same
// deployments as NewHeuristic. Always plans at node granularity.
func NewHeuristicNaive() *Heuristic { return &Heuristic{naive: true, mode: poolNodesOnly} }

// Name implements Planner.
func (*Heuristic) Name() string { return "heuristic" }

// newEvaluator builds the placement evaluator this planner variant uses.
func (p *Heuristic) newEvaluator(req Request) PlacementEvaluator {
	if p.naive {
		return NewNaiveEvaluator(req.Costs, req.Columns.Bandwidth, req.Wapp)
	}
	return NewEvaluator(req.Costs, req.Columns.Bandwidth, req.Wapp)
}

// classIndexFor decides whether this plan's pool is built from spec
// classes: it returns the class index when the mode, or the pool's size and
// compressibility, call for one, and nil when the pool is planned per node.
func (p *Heuristic) classIndexFor(cols *platform.Columns) *ClassIndex {
	switch {
	case p.mode == poolClassesOnly:
		return buildClassIndexCapped(cols, cols.Len())
	case p.mode == poolAuto && cols.Len() >= classMinNodes:
		return buildClassIndexCapped(cols, cols.Len()/classMinCompression)
	}
	return nil
}

// growthOp is one recorded growth decision: attach the node at sorted
// position pos under agent id, or promote server id to an agent. A
// deployment is a root and a list of ops (answer); the grown one is a
// prefix of the growth's op log, whose first op is the seed's server.
type growthOp struct {
	promote bool
	id      int // attach: the parent agent's ID; promote: the server's ID
	pos     int // attach: sorted position of the attached node
}

// growth is the planner's working state: the evaluator, whose node table is
// the deployment being grown, the op log that rebuilds it, and the
// heap-backed placement indexes.
type growth struct {
	req    Request
	ev     PlacementEvaluator
	tab    *nodeTable // ev's: a node's ID is its index, the root is 0
	target float64
	pool   *sortedPool // positions 0 and 1 are the seed; growth consumes 2..n-1

	gateCap  []int // per-ID supported_children at the target rate (agents)
	agentIDs []int // live agent IDs, ascending (pass-3 scan order)

	// deficient counts non-root agents with fewer than two children: zero
	// means the current tree satisfies hierarchy.Final without an O(n) walk.
	deficient int

	open  lazyHeap // max-heap: gated agents by scheduling slack with one more child
	promo lazyHeap // max-heap: promotable servers by power

	ops []growthOp

	// stats counts the work done, flushed into the plan trace (when one
	// is attached) after growth ends. Plain ints: growth runs on one
	// goroutine, and counting must cost nothing when tracing is off.
	stats struct {
		iterations     int64 // growth-loop passes
		candidateScans int64 // agents examined by ungated pass-3 scans
		evaluatorOps   int64 // evaluator queries (Eval, RhoAfterAttach)
		promotions     int64 // servers converted to agents (shift_nodes)
	}
}

// bestMark is the op-log prefix of the best valid deployment seen during
// growth; the seed deployment (the log's first op) is always valid.
type bestMark struct {
	ops    int
	capped float64
	nodes  int
}

// registerAgent indexes a (root or promoted) agent for gated placement.
// Call only after g.target is set. The agent's own link bandwidth governs
// its supported_children count.
func (g *growth) registerAgent(id int) {
	n := &g.tab.nodes[id]
	g.gateCap[id] = supportedChildren(g.req.Costs, n.bw, n.power, g.target, g.pool.n-1)
	g.pushOpen(id)
	// Binary-insert to keep pass 3 scanning agents in ascending ID order,
	// matching the hierarchy.Agents() order of the reference algorithm.
	lo, hi := 0, len(g.agentIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.agentIDs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	g.agentIDs = append(g.agentIDs, 0)
	copy(g.agentIDs[lo+1:], g.agentIDs[lo:])
	g.agentIDs[lo] = id
}

// pushOpen refreshes the agent's gated-placement heap entry when it still
// has gated capacity. The heap key is the scheduling power the agent would
// retain with one more child — the "slack" the reference scan maximised.
func (g *growth) pushOpen(id int) {
	n := &g.tab.nodes[id]
	if n.degree >= g.gateCap[id] {
		return
	}
	slack := calcSchPow(g.req.Costs, n.bw, n.power, n.degree+1)
	g.open.push(heapEnt{val: slack, id: id, stamp: n.stamp})
}

// attach places the node at sorted position pos as a server under parent,
// with the next free ID, updating the evaluator and every placement index.
func (g *growth) attach(parent, pos int) {
	node := g.pool.at(pos)
	id := len(g.tab.nodes)
	g.ev.AddServer(id, parent, node.Power, node.LinkBandwidth)
	g.gateCap = append(g.gateCap, 0)
	if n := &g.tab.nodes[id]; g.promotable(n.power, n.bw) {
		g.promo.push(heapEnt{val: n.power, id: id, stamp: n.stamp})
	}
	if parent != 0 && g.tab.nodes[parent].degree == 2 {
		g.deficient--
	}
	g.pushOpen(parent)
	g.ops = append(g.ops, growthOp{id: parent, pos: pos})
}

// promote converts server id into an agent (shift_nodes).
func (g *growth) promote(id int) {
	g.stats.promotions++
	g.ev.Promote(id)
	g.deficient++ // zero children until the growth loop feeds it two
	g.registerAgent(id)
	g.ops = append(g.ops, growthOp{promote: true, id: id})
}

// promotable reports whether a server of power w on a link of bandwidth bw
// can support more than one child at the target rate — the static
// eligibility test of shift_nodes (Steps 16–17). calcSchPow is monotone in
// power and bandwidth, so eligibility is a static per-node test and the
// promotion heap only ever holds candidates.
func (g *growth) promotable(w, bw float64) bool {
	if g.target <= 0 || math.IsInf(g.target, -1) {
		return true
	}
	return calcSchPow(g.req.Costs, bw, w, 2) >= g.target
}

// seedGrowth starts growth from the seed deployment — the root (sorted
// position 0, ID 0) and the strongest server (position 1) under it — and
// indexes the root for gated placement. Both placement heaps are
// max-heaps: pass 1 takes the most slack, pass 2 the most power.
func (p *Heuristic) seedGrowth(req Request, target float64, pool *sortedPool) *growth {
	ev := p.newEvaluator(req)
	g := &growth{
		req: req, ev: ev, tab: ev.table(), target: target,
		pool:    pool,
		gateCap: []int{0},
		open:    lazyHeap{max: true},
		promo:   lazyHeap{max: true},
	}
	root := pool.at(0)
	ev.AddAgent(0, -1, root.Power, root.LinkBandwidth)
	g.attach(0, 1)
	g.registerAgent(0)
	return g
}

// run executes the greedy growth loop (Steps 10–38) over the seeded state,
// returning the best op-log mark seen. The context is polled once per
// iteration, so cancellation latency is one placement step.
func (g *growth) run(ctx context.Context, name string) (bestMark, error) {
	req := g.req
	tr := obs.TraceFrom(ctx)
	evalCapped := func() float64 {
		g.stats.evaluatorOps++
		sched, service := g.ev.Eval()
		return req.Demand.Cap(math.Min(sched, service))
	}
	best := bestMark{ops: len(g.ops), capped: evalCapped(), nodes: len(g.tab.nodes)}

	// The phase and the counters are flushed on every exit: an interrupted
	// plan is the one whose trace an operator most wants to read.
	endGrow := tr.Phase("grow")
	defer func() {
		endGrow()
		tr.Count("iterations", g.stats.iterations)
		tr.Count("candidate_scans", g.stats.candidateScans)
		tr.Count("evaluator_ops", g.stats.evaluatorOps)
		tr.Count("promotions", g.stats.promotions)
	}()
	n := g.pool.n
	next := 2 // sorted position of the next unused node
	for next < n {
		if err := CheckContext(ctx, name); err != nil {
			return best, err
		}
		g.stats.iterations++
		g.stats.evaluatorOps++
		sched, service := g.ev.Eval()
		// Demand met by both phases: stop, preferring fewer resources.
		if req.Demand.Bounded() && service >= float64(req.Demand) && sched >= float64(req.Demand) {
			break
		}
		// Balance reached: servicing power has caught up with scheduling
		// power, so additional servers cannot raise ρ.
		if service >= sched {
			break
		}

		parent, promoted := g.placeNext(next)
		if parent < 0 {
			break
		}
		g.attach(parent, next)
		next++

		// A promoted agent must end with at least two children to satisfy
		// the paper's shape invariant; feed it a second server immediately
		// when available (inner while of Steps 18–24).
		if promoted && next < n {
			g.attach(parent, next)
			next++
		}

		if g.deficient == 0 {
			if cur, nodes := evalCapped(), len(g.tab.nodes); cur > best.capped || (cur == best.capped && nodes < best.nodes) {
				best = bestMark{ops: len(g.ops), capped: cur, nodes: nodes}
			}
		}
	}
	return best, nil
}

// PlanContext implements Planner; the context is polled once per growth
// iteration, so cancellation latency is one placement step.
func (p *Heuristic) PlanContext(ctx context.Context, req Request) (plan *Plan, err error) {
	if req, err = req.Resolve(); err != nil {
		return nil, err
	}
	// Checked before the agent-limited shortcut too, so a dead context
	// never produces a plan.
	if err := CheckContext(ctx, p.Name()); err != nil {
		return nil, err
	}
	c := req.Costs
	bw := req.Columns.Bandwidth
	wapp := req.Wapp
	tr := obs.TraceFrom(ctx)

	// Steps 1–2, at the granularity the input calls for. Everything below
	// sees only the sorted pool.
	ix := p.classIndexFor(req.Columns)
	endSort := tr.Phase("sort_nodes")
	var pool *sortedPool
	if ix != nil {
		tr.Count("pool_classes", int64(ix.NumClasses()))
		pool = newClassPool(c, ix)
		defer func() {
			if plan != nil {
				plan.ClassPlanned = true
				plan.PoolClasses = ix.NumClasses()
			}
		}()
	} else {
		pool = newNodePool(c, req.Columns, borrowScratch(ctx))
		defer pool.release()
	}
	root, first := pool.at(0), pool.at(1)
	endSort()
	n := pool.n
	tr.Count("pool_nodes", int64(n))
	rootBW := root.Link(bw)
	uniform := pool.uniformLinks(bw)

	// Steps 3–5: virtual maximum scheduling power of the best node with one
	// child versus the servicing power of the best prospective server. Each
	// node's own link bandwidth enters its term.
	virMaxSchPow := calcSchPow(c, rootBW, root.Power, 1)
	virMaxSerPow := calcHierSerPow(c, first.Link(bw), wapp, []float64{first.Power})
	minSerCV := virMaxSerPow
	if req.Demand.Bounded() && float64(req.Demand) < minSerCV {
		minSerCV = float64(req.Demand)
	}

	// Step 6: agent-limited shortcut — one agent, one server. Under
	// heterogeneous links the sorted head is no longer the best pair root
	// (the d = n−1 ranking punishes slow links far harder than degree 1
	// does), so the shortcut considers every pair before committing.
	if virMaxSchPow < minSerCV {
		if !uniform {
			seed := model.EvaluateLinks(c, bw, wapp,
				[]model.Agent{{Power: root.Power, Degree: 1, Bandwidth: root.LinkBandwidth}},
				[]model.Server{{Power: first.Power, Bandwidth: first.LinkBandwidth}})
			if pr, ps, ok := bestPair(req, pool, req.Demand.Cap(seed.Rho)); ok {
				return p.answer(ctx, req, "pair", pool.peek, pr, []growthOp{{pos: ps}})
			}
		}
		return p.answer(ctx, req, "seed", pool.at, 0, []growthOp{{pos: 1}})
	}

	// The target rate used for supported_children: the best servicing power
	// the pool could possibly deliver (every non-root node serving, the
	// transfer charged at the pool's slowest link), capped by the client
	// demand. Agents that cannot schedule at this rate should not be given
	// more children.
	minPoolBW := pool.poolMin(bw, func(_, nbw float64) float64 { return nbw })
	poolService, totalPow := pool.poolService(c, minPoolBW, wapp)
	target := poolService
	if req.Demand.Bounded() && float64(req.Demand) < target {
		target = float64(req.Demand)
	}
	// Service-rich regime: when even the best node cannot schedule at the
	// pool's full service rate, the target is unattainable and would block
	// all gated growth. Algorithm 1's Step 12 recomputes the virtual
	// maximum scheduling power with supported_children equal to 2; we
	// pivot the target to the root's two-child scheduling power, which
	// steers construction towards the deep low-degree trees that are
	// optimal in this regime (cf. Table 4's degree-2 row).
	if target > virMaxSchPow {
		target = calcSchPow(c, rootBW, root.Power, 2)
	}

	g := p.seedGrowth(req, target, pool)
	best, err := g.run(ctx, p.Name())
	if err != nil {
		return nil, err
	}

	endSnapshots := tr.Phase("snapshots")
	// Gated growth and promotion shape deep trees and never revisit the
	// flat star; on hub-dominated platforms (one very strong node, weak
	// leaves) that star is the better deployment — promotion caps ρ_sched
	// at a weak agent's throughput long before the hub's own capacity is
	// spent. Score the full star as one more candidate snapshot (computed
	// exactly as baseline.Star's evaluation would) and take it on strict
	// improvement. This keeps the planner's predicted ρ at or above the
	// star baseline on every platform, which the fuzz harness asserts.
	//
	// Under heterogeneous links the sorted pool's tail is no longer
	// guaranteed to carry the prediction minimum (the sort key mixes power
	// and link), so scan the whole pool; on uniform platforms the minimum
	// is exactly the old tail value.
	starSched := math.Min(calcSchPow(c, rootBW, root.Power, n-1),
		pool.poolMin(bw, func(w, nbw float64) float64 { return model.ServerPredictionThroughput(c, nbw, w) }))
	starCapped := req.Demand.Cap(math.Min(starSched, poolService))
	starRootPos := 0 // sorted position; 0 is the default (paper) root

	// Under heterogeneous links the best star does not necessarily root at
	// the sorted head: when service-limited, the ideal star root is the
	// node whose removal from the serving set costs least — often a weak
	// node on a fast link, freeing every strong node to serve. Score the
	// star over every root in one pass (power sum, then min/second-min of
	// the prediction throughputs and link bandwidths for O(1) exclusion).
	// Every member of a run scores identically, so its first position
	// stands for all of them. Gated to non-uniform platforms: uniform
	// planning keeps the paper's sorted-head star bit for bit.
	if !uniform {
		predMin, linkMin := newMin2(), newMin2()
		for j := range pool.runs {
			r := &pool.runs[j]
			nbw := r.bw(bw)
			pred := model.ServerPredictionThroughput(c, nbw, r.power)
			for pos := r.start; pos < r.lead(); pos++ {
				predMin.fold(pred, pos)
				linkMin.fold(nbw, pos)
			}
		}
		am := argMax{v: starCapped, i: -1}
		for j := range pool.runs {
			r := &pool.runs[j]
			sched := math.Min(calcSchPow(c, r.bw(bw), r.power, n-1), predMin.excl(r.start))
			service := serviceFromAggregates(c, linkMin.excl(r.start), wapp, n-1, totalPow-r.power)
			am.fold(req.Demand.Cap(math.Min(sched, service)), r.start)
		}
		if am.i >= 0 {
			starCapped, starRootPos = am.v, am.i
		}
	}

	// Heterogeneous-links fallback: the best one-agent/one-server pair.
	// Steps 3–7's shortcut builds the sorted head pair, which under uniform
	// links is the optimal pair (both rankings are power rankings). With
	// per-node links the optimal pair decouples — the best root is a node
	// whose *link* sustains degree 1 (agent link terms scale with degree,
	// so a modest node on the fast LAN beats a giant behind the WAN), while
	// the best server maximises min(prediction, single-server service),
	// which barely depends on its link (server messages are tiny). Taken
	// only on strict improvement over both the grown tree and the star
	// snapshot, and gated to non-uniform platforms: uniform planning stays
	// bit-identical.
	if !uniform {
		if pr, ps, ok := bestPair(req, pool, math.Max(best.capped, starCapped)); ok {
			endSnapshots()
			return p.answer(ctx, req, "pair", pool.peek, pr, []growthOp{{pos: ps}})
		}
	}
	endSnapshots()

	if starCapped > best.capped {
		ops := make([]growthOp, 0, n-1)
		for pos := range n {
			if pos != starRootPos {
				ops = append(ops, growthOp{pos: pos})
			}
		}
		return p.answer(ctx, req, "star", pool.at, starRootPos, ops)
	}
	// The grown tree wins: the best prefix of the op log.
	return p.answer(ctx, req, "grown", pool.at, 0, g.ops[:best.ops])
}

// answer builds the deployment a plan returns and finalizes it: the one
// place this planner makes a hierarchy. The node at sorted position root
// becomes the root agent, ID 0, and each op in turn attaches the node at
// op.pos under agent op.id with the next ID, or promotes server op.id.
// Growth assigned IDs the same way, so a prefix of its op log rebuilds the
// tree it had reached after that prefix (Steps 28–34 generalised). node
// names a sorted position: pool.at, or pool.peek for a pair picked deep in
// the pool. win is the snapshot kind the trace records; building a grown
// answer is the trace's replay phase.
func (p *Heuristic) answer(ctx context.Context, req Request, win string, node func(pos int) platform.Node, root int, ops []growthOp) (*Plan, error) {
	tr := obs.TraceFrom(ctx)
	tr.Set("snapshot_win", win)
	endBuild := func() {}
	if win == "grown" {
		endBuild = tr.Phase("replay")
	}
	h := hierarchy.New(fmt.Sprintf("%s-wapp%.3g", req.Columns.Name, req.Wapp))
	r := node(root)
	_, err := h.AddRoot(r.Name, r.Power, r.LinkBandwidth)
	for _, op := range ops {
		if err != nil {
			break
		}
		if op.promote {
			err = h.PromoteToAgent(op.id)
			continue
		}
		nd := node(op.pos)
		_, err = h.AddServer(op.id, nd.Name, nd.Power, nd.LinkBandwidth)
	}
	endBuild()
	if err != nil {
		return nil, err
	}
	return Finalize(p.Name(), req, h)
}

// placeNext decides where the node at sorted position next goes. It returns
// the parent agent ID and whether that parent was just promoted from a
// server. A negative parent means growth must stop.
//
// Three passes, in the spirit of Steps 15–26:
//
//  1. Gated attachment: attach under an agent whose scheduling power stays
//     at or above the target rate with one more child (supported_children).
//     Such a move never lowers the demand-capped throughput while the
//     hierarchy is scheduling-rich, and it preserves the scheduling headroom
//     a deep tree needs. The gated agents live in a max-heap keyed by that
//     retained scheduling power, so the pick is O(log n).
//  2. Promotion (shift_nodes): every agent is full at the target rate —
//     convert the most powerful leaf server that can itself support more
//     than one child into an agent and grow under it, one level deeper.
//     Eligibility is a static power threshold, so the candidates live in a
//     max-heap by power.
//  3. Ungated attachment: no agent has gated capacity and no promotion is
//     possible (the target is out of reach for every node, which happens on
//     small pools whose aggregate service power exceeds what any agent can
//     schedule). Trade scheduling power down for service power as long as
//     the move strictly improves the demand-capped throughput, evaluated
//     with one evaluator what-if per agent. (The what-ifs pop lazy-heap
//     state, so this scan must stay sequential.)
func (g *growth) placeNext(next int) (parent int, promoted bool) {
	// Pass 1: gated attachment under the agent that keeps the most slack.
	if e, ok := g.open.peek(g.tab.nodes, roleAgent); ok {
		return e.id, false
	}

	// Pass 2 (Steps 16–17): promotion. Needs at least two unused nodes so
	// the new agent can reach the two-children invariant.
	if g.pool.n-next >= 2 {
		if e, ok := g.promo.peek(g.tab.nodes, roleServer); ok {
			g.promote(e.id)
			return e.id, true
		}
	}

	// Pass 3: ungated attachment, accepted only on strict improvement. The
	// pool is sorted by scheduling power (computed at each node's own
	// link), so the next unused node is the strongest candidate remaining
	// under that ranking.
	g.stats.evaluatorOps++
	sched, service := g.ev.Eval()
	cur := g.req.Demand.Cap(math.Min(sched, service))
	nextNode := g.pool.at(next)
	bestParent := -1
	bestRho := cur
	g.stats.candidateScans += int64(len(g.agentIDs))
	g.stats.evaluatorOps += int64(len(g.agentIDs))
	for _, id := range g.agentIDs {
		if rho := g.req.Demand.Cap(g.ev.RhoAfterAttach(id, nextNode.Power, nextNode.LinkBandwidth)); rho > bestRho {
			bestParent, bestRho = id, rho
		}
	}
	return bestParent, false
}

// bestPair scans every one-agent/one-server pair of the pool and returns
// the sorted positions of the best one whose demand-capped ρ strictly
// exceeds floor. The best root is the node whose own link sustains degree 1
// best; the best server maximises min(prediction throughput, lone-server
// servicing power) — a ranking independent of the root choice, so the
// top-two servers scored against every root cover all candidate pairs in
// one pass over the runs. Within a run only the first two members are
// distinct candidates: the first may be the best server itself and so pair
// with the runner-up, the second pairs with the best like every later
// member.
func bestPair(req Request, pool *sortedPool, floor float64) (rootPos, servPos int, ok bool) {
	c, bw, wapp := req.Costs, req.Columns.Bandwidth, req.Wapp
	top := newTop2()
	for j := range pool.runs {
		r := &pool.runs[j]
		nbw := r.bw(bw)
		score := math.Min(model.ServerPredictionThroughput(c, nbw, r.power),
			calcHierSerPow(c, nbw, wapp, []float64{r.power}))
		for pos := r.start; pos < r.lead(); pos++ {
			top.fold(score, pos)
		}
	}
	am := argMax{v: floor, i: -1}
	for j := range pool.runs {
		r := &pool.runs[j]
		rootSch := calcSchPow(c, r.bw(bw), r.power, 1)
		for pos := r.start; pos < r.lead(); pos++ {
			sv := top.v1
			if pos == top.i1 {
				if top.i2 < 0 {
					continue
				}
				sv = top.v2
			}
			am.fold(req.Demand.Cap(math.Min(rootSch, sv)), pos)
		}
	}
	if am.i < 0 {
		return -1, -1, false
	}
	if am.i == top.i1 {
		return am.i, top.i2, true
	}
	return am.i, top.i1, true
}
