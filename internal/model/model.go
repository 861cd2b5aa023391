// Package model implements the steady-state performance model of §3 of the
// paper (Equations 1–16): per-request communication and computation
// occupation times for agents and servers under the single-port,
// no-internal-parallelism machine model M(r,s,w), and the derived
// scheduling, service, and platform throughputs.
//
// The model's inputs are deliberately primitive (powers in MFlop/s, degrees,
// message sizes in Mbit, bandwidth in Mbit/s) so that both the planner
// (internal/core) and the hierarchy evaluator (internal/hierarchy) can call
// it without import cycles.
//
// One subtlety carried over from the paper: Table 3 reports *different*
// message sizes at the agent level and at the server level (agent-to-agent
// messages carry aggregated responses and larger headers). The equations in
// §3 are written with a single Sreq/Srep; we keep role-specific sizes and
// use the agent sizes in agent terms and the server sizes in server terms,
// which is what the calibration data actually measures.
package model

import (
	"fmt"
	"math"
)

// Costs bundles the middleware cost parameters of Table 3. All W* values
// are MFlop per request; all S* values are Mbit per message.
type Costs struct {
	// AgentWreq is the computation an agent spends processing one incoming
	// request (Wreq in the paper).
	AgentWreq float64
	// AgentWfix is the fixed part of the reply-treatment cost Wrep(d) =
	// Wfix + Wsel·d.
	AgentWfix float64
	// AgentWsel is the per-child part of Wrep(d): the cost of scanning one
	// child's reply during best-server selection.
	AgentWsel float64
	// ServerWpre is the computation a server spends producing a performance
	// prediction during the scheduling phase (Wpre).
	ServerWpre float64

	// AgentSreq and AgentSrep are the request/reply message sizes on
	// agent-level links.
	AgentSreq float64
	AgentSrep float64
	// ServerSreq and ServerSrep are the request/reply message sizes on the
	// server's link to its parent.
	ServerSreq float64
	ServerSrep float64
}

// DIETDefaults returns the parameter values measured for DIET 2.0 on the
// Lyon site of Grid'5000 (Table 3 of the paper).
func DIETDefaults() Costs {
	return Costs{
		AgentWreq:  1.7e-1,
		AgentWfix:  4.0e-3,
		AgentWsel:  5.4e-3,
		ServerWpre: 6.4e-3,
		AgentSreq:  5.3e-3,
		AgentSrep:  5.4e-3,
		ServerSreq: 5.3e-5,
		ServerSrep: 6.4e-5,
	}
}

// Validate checks that all cost parameters are non-negative and that the
// ones the model divides by are positive.
func (c Costs) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"AgentWreq", c.AgentWreq},
		{"AgentWfix", c.AgentWfix},
		{"AgentWsel", c.AgentWsel},
		{"ServerWpre", c.ServerWpre},
		{"AgentSreq", c.AgentSreq},
		{"AgentSrep", c.AgentSrep},
		{"ServerSreq", c.ServerSreq},
		{"ServerSrep", c.ServerSrep},
	}
	for _, ch := range checks {
		if ch.v < 0 || math.IsNaN(ch.v) || math.IsInf(ch.v, 0) {
			return fmt.Errorf("model: cost %s = %g is invalid", ch.name, ch.v)
		}
	}
	return nil
}

// WrepAgent returns the reply-treatment cost Wrep(d) = Wfix + Wsel·d in
// MFlop for an agent with d children.
func (c Costs) WrepAgent(d int) float64 {
	return c.AgentWfix + c.AgentWsel*float64(d)
}

// AgentReceiveTime implements Eq. 1: the seconds an agent with d children
// spends receiving one request from its parent and d replies from its
// children.
func AgentReceiveTime(c Costs, bandwidth float64, d int) float64 {
	return (c.AgentSreq + float64(d)*c.AgentSrep) / bandwidth
}

// AgentSendTime implements Eq. 2: the seconds an agent with d children
// spends forwarding the request to its d children and one reply to its
// parent.
func AgentSendTime(c Costs, bandwidth float64, d int) float64 {
	return (float64(d)*c.AgentSreq + c.AgentSrep) / bandwidth
}

// ServerReceiveTime implements Eq. 3.
func ServerReceiveTime(c Costs, bandwidth float64) float64 {
	return c.ServerSreq / bandwidth
}

// ServerSendTime implements Eq. 4.
func ServerSendTime(c Costs, bandwidth float64) float64 {
	return c.ServerSrep / bandwidth
}

// AgentCompTime implements Eq. 5: the seconds an agent of power w MFlop/s
// with d children spends computing per request.
func AgentCompTime(c Costs, w float64, d int) float64 {
	return (c.AgentWreq + c.WrepAgent(d)) / w
}

// AgentThroughput returns the scheduling throughput (requests/second) an
// agent of power w with d children sustains: the agent term of Eq. 14.
// Under M(r,s,w) the agent serialises its receive, send and compute
// activity, so the sustainable rate is the inverse of the summed
// per-request occupation.
func AgentThroughput(c Costs, bandwidth, w float64, d int) float64 {
	t := AgentCompTime(c, w, d) + AgentReceiveTime(c, bandwidth, d) + AgentSendTime(c, bandwidth, d)
	return 1 / t
}

// ServerPredictionThroughput returns the rate at which a server of power w
// can serve the scheduling phase (prediction plus request/reply messages):
// the server term of Eq. 14.
func ServerPredictionThroughput(c Costs, bandwidth, w float64) float64 {
	t := c.ServerWpre/w + ServerReceiveTime(c, bandwidth) + ServerSendTime(c, bandwidth)
	return 1 / t
}

// ServerCompTime implements Eq. 10: the aggregate seconds-per-request the
// server set needs for the service phase, accounting for the fact that
// *every* server predicts every request (cost Wpre each) while the service
// work Wapp is split across servers proportionally to their power.
//
// wapp is the MFlop cost of one service request; powers are the server
// computing powers. The formula is
//
//	(1 + Σ_s Wpre/Wapp) / (Σ_s w_s/Wapp)
//
// which for a single server reduces to (Wapp+Wpre)/w.
func ServerCompTime(c Costs, wapp float64, powers []float64) float64 {
	if len(powers) == 0 {
		return math.Inf(1)
	}
	num := 1.0
	den := 0.0
	for _, w := range powers {
		num += c.ServerWpre / wapp
		den += w / wapp
	}
	return num / den
}

// ServiceThroughput implements Eq. 15: the completed-service throughput of
// the server set, including the service request/response transfer on the
// selected server's link.
func ServiceThroughput(c Costs, bandwidth, wapp float64, powers []float64) float64 {
	if len(powers) == 0 {
		return 0
	}
	t := ServerReceiveTime(c, bandwidth) + ServerSendTime(c, bandwidth) + ServerCompTime(c, wapp, powers)
	return 1 / t
}

// Agent describes an agent node for evaluation: its power, its number of
// children (agents or servers), and optionally its own link bandwidth
// (zero means "the evaluation's default bandwidth" — the homogeneous-links
// model of the paper).
type Agent struct {
	Power     float64
	Degree    int
	Bandwidth float64
}

// Server describes a server node for the heterogeneous-links evaluation:
// its power and optionally its own link bandwidth (zero = default).
type Server struct {
	Power     float64
	Bandwidth float64
}

// linkOr resolves a per-node bandwidth override against the default.
func linkOr(bw, def float64) float64 {
	if bw > 0 {
		return bw
	}
	return def
}

// Bottleneck identifies which phase (and which node kind) limits a
// deployment's throughput.
type Bottleneck int

const (
	// BottleneckNone is returned for degenerate (empty) deployments.
	BottleneckNone Bottleneck = iota
	// BottleneckAgent means an agent's scheduling work caps throughput.
	BottleneckAgent
	// BottleneckServerPrediction means a server's prediction work caps the
	// scheduling phase.
	BottleneckServerPrediction
	// BottleneckService means the aggregate service capacity caps
	// throughput.
	BottleneckService
)

// String implements fmt.Stringer.
func (b Bottleneck) String() string {
	switch b {
	case BottleneckAgent:
		return "agent"
	case BottleneckServerPrediction:
		return "server-prediction"
	case BottleneckService:
		return "service"
	default:
		return "none"
	}
}

// Evaluation is the full model output for one deployment.
type Evaluation struct {
	// Sched is ρ_sched (Eq. 14) in requests/second.
	Sched float64
	// Service is ρ_service (Eq. 15) in requests/second.
	Service float64
	// Rho is the platform throughput ρ = min(Sched, Service) (Eq. 16).
	Rho float64
	// Bottleneck tells which term achieved the minimum.
	Bottleneck Bottleneck
	// LimitingAgent is the index (into the agents slice passed to Evaluate)
	// of the agent achieving the scheduling minimum, or -1.
	LimitingAgent int
	// LimitingServer is the index of the server achieving the prediction
	// minimum, or -1.
	LimitingServer int
}

// Evaluate computes the complete throughput evaluation (Eq. 16) of a
// deployment described by its agent set and server power set, for service
// requests costing wapp MFlop, under homogeneous links of the given
// bandwidth.
func Evaluate(c Costs, bandwidth, wapp float64, agents []Agent, serverPowers []float64) Evaluation {
	servers := make([]Server, len(serverPowers))
	for i, w := range serverPowers {
		servers[i] = Server{Power: w}
	}
	return EvaluateLinks(c, bandwidth, wapp, agents, servers)
}

// EvaluateLinks is Evaluate generalised to heterogeneous links: every agent
// and server may carry its own link bandwidth (zero = the default
// bandwidth). The scheduling phase takes each node's own link into its
// term of Eq. 14; the service phase (Eq. 15) keeps the paper's aggregate
// form but pays the request/response transfer on the *slowest* server
// link — the conservative projection that collapses exactly to Eq. 15
// when links are uniform.
func EvaluateLinks(c Costs, bandwidth, wapp float64, agents []Agent, servers []Server) Evaluation {
	ev := Evaluation{LimitingAgent: -1, LimitingServer: -1}
	if len(servers) == 0 {
		return ev
	}

	sched := math.Inf(1)
	schedKind := BottleneckNone
	for i, a := range agents {
		if t := AgentThroughput(c, linkOr(a.Bandwidth, bandwidth), a.Power, a.Degree); t < sched {
			sched = t
			schedKind = BottleneckAgent
			ev.LimitingAgent = i
		}
	}
	for i, s := range servers {
		if t := ServerPredictionThroughput(c, linkOr(s.Bandwidth, bandwidth), s.Power); t < sched {
			sched = t
			schedKind = BottleneckServerPrediction
			ev.LimitingAgent = -1
			ev.LimitingServer = i
		}
	}
	ev.Sched = sched
	ev.Service = ServiceThroughputLinks(c, bandwidth, wapp, servers)

	if ev.Service < ev.Sched {
		ev.Rho = ev.Service
		ev.Bottleneck = BottleneckService
		ev.LimitingAgent = -1
		ev.LimitingServer = -1
	} else {
		ev.Rho = ev.Sched
		ev.Bottleneck = schedKind
	}
	return ev
}

// ServiceThroughputLinks is ServiceThroughput generalised to per-server
// link bandwidths: the Eq. 10 computation aggregate is unchanged (it is
// pure computation), while the per-request transfer term is charged at the
// minimum server link bandwidth. The accumulation order matches
// ServerCompTime exactly, so uniform inputs produce bit-identical floats.
func ServiceThroughputLinks(c Costs, bandwidth, wapp float64, servers []Server) float64 {
	if len(servers) == 0 {
		return 0
	}
	num := 1.0
	den := 0.0
	minBW := math.Inf(1)
	for _, s := range servers {
		num += c.ServerWpre / wapp
		den += s.Power / wapp
		if bw := linkOr(s.Bandwidth, bandwidth); bw < minBW {
			minBW = bw
		}
	}
	t := ServerReceiveTime(c, minBW) + ServerSendTime(c, minBW) + num/den
	return 1 / t
}
