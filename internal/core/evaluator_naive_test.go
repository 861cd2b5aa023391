package core

import (
	"math"

	"adept/internal/model"
)

// NaiveEvaluator is the reference placementEvaluator: it records the
// deployment in the nodeTable the incremental Evaluator records it in — the
// two agree on it field for field — but answers every query with a full
// Θ(n) sweep over all nodes, exactly what the planner hot path did before
// the incremental engine existed (per-candidate model rebuilds in
// rhoAfterAdd / cappedRho).
//
// It lives in the package's tests:
//
//   - the property/fuzz tests hold Evaluator and NaiveEvaluator to 1e-9
//     agreement on every generated scenario — including heterogeneous
//     per-node link bandwidths — so the incremental bookkeeping can never
//     silently drift from the §3 model;
//   - the BenchmarkHeuristicPlanNaive* benchmarks (bench_test.go) plan
//     through it to quantify the incremental speedup (scripts/bench.sh
//     requires ≥10x at 5k nodes).
type NaiveEvaluator struct {
	costs model.Costs
	wapp  float64
	nodeTable
}

// NewNaiveEvaluator returns an empty reference evaluator; bandwidth is the
// default link bandwidth for nodes without a per-node override.
func NewNaiveEvaluator(c model.Costs, bandwidth, wapp float64) *NaiveEvaluator {
	return &NaiveEvaluator{costs: c, wapp: wapp, nodeTable: nodeTable{bw: bandwidth}}
}

// AddAgent implements placementEvaluator.
func (e *NaiveEvaluator) AddAgent(id, parent int, power, linkBW float64) {
	e.place(id, parent, roleAgent, power, linkBW)
}

// AddServer implements placementEvaluator.
func (e *NaiveEvaluator) AddServer(id, parent int, power, linkBW float64) {
	e.place(id, parent, roleServer, power, linkBW)
}

// Promote implements placementEvaluator.
func (e *NaiveEvaluator) Promote(id int) { e.promote(id) }

// SetBacking is Evaluator.SetBacking by a full sweep.
func (e *NaiveEvaluator) SetBacking(id int, power, linkBW float64) { e.reback(id, power, linkBW) }

// sweep recomputes ρ_sched and ρ_service from scratch. The override hooks
// graft one hypothetical change into the sweep without mutating state:
// agent overrideID evaluates with degree+degreeDelta and (when agentPower
// ≥ 0) that backing power and link; server swapServer evaluates with the
// agent's old power and link; extraServer ≥ 0 adds one unattached server.
type naiveOverride struct {
	agentID     int     // -1 none
	degreeDelta int     // applied to agentID
	agentPower  float64 // <0: keep
	agentBW     float64 // backing link of the agent override (with agentPower)
	serverID    int     // -1 none: server whose backing is replaced
	serverPower float64
	serverBW    float64
	extraServer float64 // <0 none: power of one additional server
	extraBW     float64 // resolved link of the additional server
	dropServer  int     // -1 none: server excluded from the sweep
}

func (e *NaiveEvaluator) sweep(ov naiveOverride) (sched, service float64) {
	sched = math.Inf(1)
	nServers := 0
	sum := 0.0
	minBW := math.Inf(1)
	for id := range e.nodes {
		n := e.nodes[id]
		switch n.role {
		case roleAgent:
			power, bw, degree := n.power, n.bw, n.degree
			if id == ov.agentID {
				degree += ov.degreeDelta
				if ov.agentPower >= 0 {
					power, bw = ov.agentPower, ov.agentBW
				}
			}
			if t := model.AgentThroughput(e.costs, bw, power, degree); t < sched {
				sched = t
			}
		case roleServer:
			if id == ov.dropServer {
				continue
			}
			power, bw := n.power, n.bw
			if id == ov.serverID {
				power, bw = ov.serverPower, ov.serverBW
			}
			nServers++
			sum += power
			if bw < minBW {
				minBW = bw
			}
			if t := model.ServerPredictionThroughput(e.costs, bw, power); t < sched {
				sched = t
			}
		}
	}
	if ov.extraServer >= 0 {
		nServers++
		sum += ov.extraServer
		if ov.extraBW < minBW {
			minBW = ov.extraBW
		}
		if t := model.ServerPredictionThroughput(e.costs, ov.extraBW, ov.extraServer); t < sched {
			sched = t
		}
	}
	if nServers == 0 {
		return 0, 0
	}
	service = serviceFromAggregates(e.costs, minBW, e.wapp, nServers, sum)
	return sched, service
}

// noOverride evaluates the recorded deployment as-is.
var noOverride = naiveOverride{agentID: -1, agentPower: -1, serverID: -1, extraServer: -1, dropServer: -1}

// Eval implements placementEvaluator.
func (e *NaiveEvaluator) Eval() (sched, service float64) {
	return e.sweep(noOverride)
}

// RhoAfterAttach implements placementEvaluator.
func (e *NaiveEvaluator) RhoAfterAttach(parent int, power, linkBW float64) float64 {
	ov := noOverride
	ov.agentID, ov.degreeDelta = parent, 1
	ov.extraServer, ov.extraBW = power, e.link(linkBW)
	sched, service := e.sweep(ov)
	return math.Min(sched, service)
}

// RhoAfterSwap is Evaluator.RhoAfterSwap by a full sweep.
func (e *NaiveEvaluator) RhoAfterSwap(agentID, serverID int) float64 {
	ov := noOverride
	ov.agentID, ov.agentPower, ov.agentBW = agentID, e.nodes[serverID].power, e.nodes[serverID].bw
	ov.serverID, ov.serverPower, ov.serverBW = serverID, e.nodes[agentID].power, e.nodes[agentID].bw
	sched, service := e.sweep(ov)
	return math.Min(sched, service)
}

// RhoAfterDrop is Evaluator.RhoAfterDrop by a full sweep.
func (e *NaiveEvaluator) RhoAfterDrop(serverID, parentID int) float64 {
	ov := noOverride
	ov.agentID, ov.degreeDelta = parentID, -1
	ov.dropServer = serverID
	sched, service := e.sweep(ov)
	return math.Min(sched, service)
}
