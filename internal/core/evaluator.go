package core

import (
	"math"

	"adept/internal/model"
)

// placementEvaluator is the throughput-evaluation engine Algorithm 1's
// growth drives while it grows a deployment. It keeps the deployment's one
// per-node record (nodeTable: who is an agent, who is a server, degrees,
// backing powers and links), which growth reads instead of keeping its
// own, and answers the two questions growth asks: Eval, the current
// ρ_sched / ρ_service of the recorded deployment, and RhoAfterAttach, the
// demand-uncapped ρ after one speculative attach, WITHOUT mutating state.
//
// Node ids are the caller's dense identifiers, parents before children:
// the ID a node has in the deployment its owner builds (growth, the swap
// refiner's record). Production plans through the incremental Evaluator;
// the package's tests also plan through a full-recompute reference that
// keeps its record in the same nodeTable, so the two agree on it field
// for field, stamps included.
// Per-node link bandwidths: every placement primitive carries the backing
// node's link bandwidth alongside its power (zero = the platform default
// handed to the constructor), so deployments over multi-cluster platforms
// evaluate each node's communication terms at its own link speed.
type placementEvaluator interface {
	// AddAgent registers node id as an agent with no children yet. parent
	// is the agent's parent id, or -1 for the root; the parent's degree is
	// incremented.
	AddAgent(id, parent int, power, linkBW float64)
	// AddServer registers node id as a server leaf under parent, whose
	// degree is incremented.
	AddServer(id, parent int, power, linkBW float64)
	// Promote converts server id into a childless agent (shift_nodes).
	Promote(id int)
	// Eval returns the current ρ_sched and ρ_service (Eqs. 14–15);
	// ρ = min of the two. A deployment with no servers evaluates to (0, 0),
	// matching model.Evaluate.
	Eval() (sched, service float64)
	// RhoAfterAttach returns the ρ the deployment would have with one more
	// server of the given power and link attached under agent parent.
	RhoAfterAttach(parent int, power, linkBW float64) float64
	// table returns the evaluator's node record.
	table() *nodeTable
}

// roleAgent/roleServer track what each id currently is; the zero value is
// an id not placed yet.
const (
	_ int8 = iota
	roleAgent
	roleServer
)

// evalNode is one id's entry in a nodeTable. bw is the node's *resolved*
// link bandwidth (the zero override already replaced by the platform
// default at registration).
type evalNode struct {
	power  float64
	bw     float64
	degree int
	role   int8
	stamp  uint32 // bumped on every change; stale heap entries self-invalidate
}

// nodeTable is the per-id record of a deployment that both evaluators keep
// and the growth driver reads: every change to a node bumps its stamp, so a
// lazy heap keyed on the table drops entries that outlived their node's
// state. Placing a node bumps its parent's degree and stamp; promoting or
// re-backing one bumps its own.
type nodeTable struct {
	bw    float64 // default link bandwidth (platform B)
	nodes []evalNode
}

func (t *nodeTable) table() *nodeTable { return t }

// Reset clears the table, retaining capacity for reuse.
func (t *nodeTable) Reset() { t.nodes = t.nodes[:0] }

// link resolves a per-node bandwidth override against the default.
func (t *nodeTable) link(bw float64) float64 {
	if bw > 0 {
		return bw
	}
	return t.bw
}

// place records id as a childless node of the given role under parent (-1
// for the root).
func (t *nodeTable) place(id, parent int, role int8, power, linkBW float64) {
	for len(t.nodes) <= id {
		t.nodes = append(t.nodes, evalNode{})
	}
	n := &t.nodes[id]
	n.power, n.bw, n.degree, n.role = power, t.link(linkBW), 0, role
	n.stamp++
	if parent >= 0 {
		p := &t.nodes[parent]
		p.degree++
		p.stamp++
	}
}

// promote converts server id into a childless agent; its parent's degree
// is unchanged (the node keeps its slot).
func (t *nodeTable) promote(id int) {
	n := &t.nodes[id]
	n.role, n.degree = roleAgent, 0
	n.stamp++
}

// reback re-backs id with another physical node, keeping role and degree.
func (t *nodeTable) reback(id int, power, linkBW float64) {
	n := &t.nodes[id]
	n.power, n.bw = power, t.link(linkBW)
	n.stamp++
}

// serviceFromAggregates computes ρ_service (Eq. 15) from the server count
// and power sum alone — the aggregate form of model.ServiceThroughput:
//
//	1 / (Srx + Stx + (1 + n·Wpre/Wapp) / (Σw/Wapp))
//
// This is what makes the service term O(1) under incremental maintenance.
// bandwidth is the link the service transfer is charged at: under
// heterogeneous links, the *minimum* server link bandwidth of the set
// (matching model.ServiceThroughputLinks).
//
//adeptvet:hotpath
func serviceFromAggregates(c model.Costs, bandwidth, wapp float64, n int, sum float64) float64 {
	if n == 0 {
		return 0
	}
	comp := (1 + float64(n)*(c.ServerWpre/wapp)) / (sum / wapp)
	t := model.ServerReceiveTime(c, bandwidth) + model.ServerSendTime(c, bandwidth) + comp
	return 1 / t
}

// heapEnt is one lazy heap entry: a cached key for node id, valid only
// while the node's stamp still matches.
type heapEnt struct {
	val   float64
	id    int
	stamp uint32
}

// lazyHeap is a binary heap of heapEnt with lazy invalidation: mutators
// push fresh entries instead of updating in place, and queries discard
// entries whose stamp no longer matches the node table. max selects
// max-heap order; ties always break towards the smaller id so heap-driven
// planners reproduce the tie-breaking of the linear scans they replace.
type lazyHeap struct {
	ents []heapEnt
	max  bool
}

func (h *lazyHeap) less(a, b heapEnt) bool {
	if a.val != b.val {
		if h.max {
			return a.val > b.val
		}
		return a.val < b.val
	}
	return a.id < b.id
}

//adeptvet:hotpath
func (h *lazyHeap) push(e heapEnt) {
	h.ents = append(h.ents, e)
	i := len(h.ents) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.ents[i], h.ents[p]) {
			break
		}
		h.ents[i], h.ents[p] = h.ents[p], h.ents[i]
		i = p
	}
}

//adeptvet:hotpath
func (h *lazyHeap) pop() heapEnt {
	top := h.ents[0]
	last := len(h.ents) - 1
	h.ents[0] = h.ents[last]
	h.ents = h.ents[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.less(h.ents[l], h.ents[small]) {
			small = l
		}
		if r < last && h.less(h.ents[r], h.ents[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.ents[i], h.ents[small] = h.ents[small], h.ents[i]
		i = small
	}
	return top
}

// peek returns the best live entry, permanently discarding stale ones.
// ok is false when the heap holds no live entry.
//
//adeptvet:hotpath
func (h *lazyHeap) peek(nodes []evalNode, role int8) (heapEnt, bool) {
	for len(h.ents) > 0 {
		e := h.ents[0]
		if nodes[e.id].stamp == e.stamp && nodes[e.id].role == role {
			return e, true
		}
		h.pop()
	}
	return heapEnt{}, false
}

// peekExcluding returns the best live entry whose id differs from skip.
//
//adeptvet:hotpath
func (h *lazyHeap) peekExcluding(nodes []evalNode, role int8, skip int) (heapEnt, bool) {
	e, ok := h.peek(nodes, role)
	if !ok || e.id != skip {
		return e, ok
	}
	top := h.pop()
	e2, ok2 := h.peek(nodes, role)
	h.push(top)
	return e2, ok2
}

func (h *lazyHeap) reset() { h.ents = h.ents[:0] }

// Evaluator is the incremental placementEvaluator: it maintains
//
//   - a compensated running sum and count of server powers, making the
//     computation part of the service term (Eq. 15) O(1);
//   - a lazy min-heap over agent scheduling throughputs, a lazy min-heap
//     over per-server effective prediction throughputs (each server's
//     Eq. 14 term evaluated at its own power *and* link bandwidth), and a
//     lazy min-heap over server link bandwidths (the slowest server link
//     carries the service phase's transfer term), keeping the scheduling
//     and service terms O(log n) amortised under heterogeneous links;
//
// so each candidate evaluation a planner issues costs O(1)–O(log n)
// instead of the Θ(n) full-model sweep the naive path performs. Stale heap
// entries are invalidated by per-node stamps and discarded on contact.
//
// On uniform-link platforms the prediction heap orders exactly like the
// old power heap (prediction throughput is monotone in power at fixed
// bandwidth) and the bandwidth heap is constant, so results are
// bit-identical to the pre-heterogeneous evaluator.
//
// An Evaluator records exactly the mutations its owner applies: a
// deployment is recorded node by node, parents first.
type Evaluator struct {
	costs model.Costs
	wapp  float64
	nodeTable

	nServers int
	sumPow   float64 // Neumaier-compensated Σ server power
	sumComp  float64

	agentThr lazyHeap // min over agent scheduling throughput
	servPred lazyHeap // min over server prediction throughput (Eq. 14 term)
	servBW   lazyHeap // min over server link bandwidth (service transfer)
}

// NewEvaluator returns an empty incremental evaluator for the given model
// calibration; bandwidth is the default link bandwidth for nodes without a
// per-node override.
func NewEvaluator(c model.Costs, bandwidth, wapp float64) *Evaluator {
	return &Evaluator{costs: c, wapp: wapp, nodeTable: nodeTable{bw: bandwidth}}
}

// Reset clears all state, retaining capacity for reuse.
func (e *Evaluator) Reset() {
	e.nodeTable.Reset()
	e.nServers = 0
	e.sumPow, e.sumComp = 0, 0
	e.agentThr.reset()
	e.servPred.reset()
	e.servBW.reset()
}

// sumAdd adds v to the server power sum with Neumaier compensation, so
// promote/swap subtractions do not accumulate drift relative to a fresh
// summation (the fuzz harness holds the two evaluators to 1e-9).
//
//adeptvet:allow floataccum this IS the compensated-sum implementation the analyzer points everyone else at
//adeptvet:hotpath
func (e *Evaluator) sumAdd(v float64) {
	t := e.sumPow + v
	if math.Abs(e.sumPow) >= math.Abs(v) {
		e.sumComp += (e.sumPow - t) + v
	} else {
		e.sumComp += (v - t) + e.sumPow
	}
	e.sumPow = t
}

// serverSum returns the compensated Σ server power.
func (e *Evaluator) serverSum() float64 { return e.sumPow + e.sumComp }

// pushAgent enters agent id's scheduling throughput at its current state;
// -1 (the root's parent) is no agent.
func (e *Evaluator) pushAgent(id int) {
	if id < 0 {
		return
	}
	n := &e.nodes[id]
	e.agentThr.push(heapEnt{val: model.AgentThroughput(e.costs, n.bw, n.power, n.degree), id: id, stamp: n.stamp})
}

// pushServer enters server id's prediction throughput and link.
func (e *Evaluator) pushServer(id int) {
	n := &e.nodes[id]
	e.servPred.push(heapEnt{val: model.ServerPredictionThroughput(e.costs, n.bw, n.power), id: id, stamp: n.stamp})
	e.servBW.push(heapEnt{val: n.bw, id: id, stamp: n.stamp})
}

// AddAgent implements placementEvaluator.
func (e *Evaluator) AddAgent(id, parent int, power, linkBW float64) {
	e.place(id, parent, roleAgent, power, linkBW)
	e.pushAgent(id)
	e.pushAgent(parent)
}

// AddServer implements placementEvaluator.
func (e *Evaluator) AddServer(id, parent int, power, linkBW float64) {
	e.place(id, parent, roleServer, power, linkBW)
	e.nServers++
	e.sumAdd(power)
	e.pushServer(id)
	e.pushAgent(parent)
}

// Promote implements placementEvaluator.
func (e *Evaluator) Promote(id int) {
	e.nServers--
	e.sumAdd(-e.nodes[id].power)
	e.promote(id)
	e.pushAgent(id)
}

// SetBacking re-backs node id with a different physical node (one half
// of the swap refiner's exchange), keeping its role and degree.
func (e *Evaluator) SetBacking(id int, power, linkBW float64) {
	if e.nodes[id].role == roleServer {
		e.sumAdd(power - e.nodes[id].power)
	}
	e.reback(id, power, linkBW)
	switch e.nodes[id].role {
	case roleAgent:
		e.pushAgent(id)
	case roleServer:
		e.pushServer(id)
	}
}

// schedWith returns ρ_sched with the candidate agent term and server
// prediction floor folded in: agentOverride is (id, its hypothetical
// throughput); pass id -1 for none. minPred is the hypothetical weakest
// server prediction throughput (math.Inf(1) for "no servers").
func (e *Evaluator) schedWith(overrideID int, overrideThr, minPred float64) float64 {
	sched := overrideThr
	var ent heapEnt
	var ok bool
	if overrideID >= 0 {
		ent, ok = e.agentThr.peekExcluding(e.nodes, roleAgent, overrideID)
	} else {
		sched = math.Inf(1)
		ent, ok = e.agentThr.peek(e.nodes, roleAgent)
	}
	if ok && ent.val < sched {
		sched = ent.val
	}
	if minPred < sched {
		sched = minPred
	}
	return sched
}

// minServerPred returns the current weakest server prediction throughput,
// optionally excluding one id (pass -1 for none); +Inf when no server
// qualifies.
func (e *Evaluator) minServerPred(skip int) float64 {
	var ent heapEnt
	var ok bool
	if skip >= 0 {
		ent, ok = e.servPred.peekExcluding(e.nodes, roleServer, skip)
	} else {
		ent, ok = e.servPred.peek(e.nodes, roleServer)
	}
	if !ok {
		return math.Inf(1)
	}
	return ent.val
}

// minServerBW returns the current slowest server link bandwidth, optionally
// excluding one id; +Inf when no server qualifies.
func (e *Evaluator) minServerBW(skip int) float64 {
	var ent heapEnt
	var ok bool
	if skip >= 0 {
		ent, ok = e.servBW.peekExcluding(e.nodes, roleServer, skip)
	} else {
		ent, ok = e.servBW.peek(e.nodes, roleServer)
	}
	if !ok {
		return math.Inf(1)
	}
	return ent.val
}

// Eval implements placementEvaluator.
func (e *Evaluator) Eval() (sched, service float64) {
	if e.nServers == 0 {
		return 0, 0
	}
	sched = e.schedWith(-1, 0, e.minServerPred(-1))
	service = serviceFromAggregates(e.costs, e.minServerBW(-1), e.wapp, e.nServers, e.serverSum())
	return sched, service
}

// RhoAfterAttach implements placementEvaluator.
func (e *Evaluator) RhoAfterAttach(parent int, power, linkBW float64) float64 {
	bw := e.link(linkBW)
	p := e.nodes[parent]
	thr := model.AgentThroughput(e.costs, p.bw, p.power, p.degree+1)
	minPred := math.Min(e.minServerPred(-1), model.ServerPredictionThroughput(e.costs, bw, power))
	sched := e.schedWith(parent, thr, minPred)
	minBW := math.Min(e.minServerBW(-1), bw)
	service := serviceFromAggregates(e.costs, minBW, e.wapp, e.nServers+1, e.serverSum()+power)
	return math.Min(sched, service)
}

// RhoAfterSwap returns the ρ the deployment would have after agent and
// server exchange backing nodes (powers and links travel together),
// without mutating state.
func (e *Evaluator) RhoAfterSwap(agentID, serverID int) float64 {
	a, s := e.nodes[agentID], e.nodes[serverID]
	thr := model.AgentThroughput(e.costs, s.bw, s.power, a.degree)
	minPred := math.Min(e.minServerPred(serverID), model.ServerPredictionThroughput(e.costs, a.bw, a.power))
	sched := e.schedWith(agentID, thr, minPred)
	minBW := math.Min(e.minServerBW(serverID), a.bw)
	service := serviceFromAggregates(e.costs, minBW, e.wapp, e.nServers, e.serverSum()-s.power+a.power)
	return math.Min(sched, service)
}

// RhoAfterDrop returns the ρ the deployment would have with server id
// removed from under parent (weak servers can lower ρ: each one pays the
// Wpre prediction cost and may carry the prediction bottleneck), without
// mutating state.
func (e *Evaluator) RhoAfterDrop(serverID, parentID int) float64 {
	if e.nServers <= 1 {
		return 0
	}
	p, s := e.nodes[parentID], e.nodes[serverID]
	thr := model.AgentThroughput(e.costs, p.bw, p.power, p.degree-1)
	sched := e.schedWith(parentID, thr, e.minServerPred(serverID))
	service := serviceFromAggregates(e.costs, e.minServerBW(serverID), e.wapp, e.nServers-1, e.serverSum()-s.power)
	return math.Min(sched, service)
}
