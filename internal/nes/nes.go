// Package nes is the two-phase protocol of a hierarchical NES middleware
// (DIET's, Fig. 1 of the paper), written once for both executors that run
// it: the discrete-event simulator (internal/sim) and the live runtime
// (internal/runtime).
//
// A scheduling request enters at the root agent, which processes it and
// forwards it to each child in turn; every server predicts its completion
// time and replies; each agent gathers its children's replies, ranks the
// candidates best-first and sends the list up; the client picks the best
// candidate and sends it the service request. This package decides what
// each of those steps occupies on the port of the node it runs on, under
// the machine model M(r,s,w): a node sends, receives or computes one thing
// at a time, at its own computing power and over its own link. What one
// request charges a node is what §3 of the paper integrates (Eqs. 1–5,
// 14 and 15), so the executors measure the model's own terms.
//
// An executor supplies the clock and the network: a Port per node and a way
// to deliver a message. The simulator's Port is a Resource on its event
// engine, and its messages are direct calls. The runtime's Port sleeps
// scaled virtual time on the element's goroutine and hands it the
// messages that arrive meanwhile from the transport. Two things stay per
// executor. One is how a candidate's estimate is read: the simulator reads
// the server's current one, as from the agents' monitoring database; the
// runtime's candidates carry the one their server sent. The other is the
// crash fault model: a crashed simulated server keeps answering the
// scheduling phase, as the stale monitoring database still lists it, and
// its service requests time out; a crashed live server is silent, and the
// agents' reply timeout answers without it.
package nes

import (
	"cmp"
	"slices"

	"adept/internal/model"
)

// Port is one node's single port: activities of the normal lane run one at
// a time in order, each occupying the port for its duration (virtual
// seconds) and then calling done. The priority lane holds the scheduling
// phase's short interactive work, which runs ahead of queued normal work
// but never interrupts the activity in progress.
type Port interface {
	Do(dur float64, done func())
	DoPriority(dur float64, done func())
}

// Candidate is a server on a scheduling reply's list. Completion is its
// estimate: the expected completion time of one more service request,
// the key every ranking and pick compares.
type Candidate interface {
	Completion() float64
}

// Rank sorts candidates best-first by estimate; ties keep their order,
// as the replies brought them.
func Rank[C Candidate](cs []C) {
	slices.SortStableFunc(cs, func(a, b C) int { return cmp.Compare(a.Completion(), b.Completion()) })
}

// Pick is the client's choice: the candidate with the smallest estimate,
// the first of them on a tie. cs must not be empty.
func Pick[C Candidate](cs []C) C {
	best := cs[0]
	for _, c := range cs[1:] {
		if c.Completion() < best.Completion() {
			best = c
		}
	}
	return best
}

// Agent is a scheduling agent whose children are reached as K and whose
// replies list candidates C. An executor may change its power, link and
// children between steps (a reconfiguration); each step reads them when
// it runs.
type Agent[K any, C Candidate] struct {
	Name     string
	Port     Port
	Costs    *model.Costs
	Power    float64 // MFlop/s
	Link     float64 // Mb/s, the node's own link
	Children []K
}

// Gather is one scheduling request in flight at an agent: the replies it
// still waits for and the candidates they brought.
type Gather[K any, C Candidate] struct {
	a         *Agent[K, C]
	want, got int
	all       []C
	done      bool
	up        func([]C)
}

// Schedule runs the agent's side of one scheduling request. It receives
// and processes the request (Eq. 1's request term, Eq. 5's Wreq), then
// forwards it to each child in turn, each send its own occupation (Eq. 2's
// d·Sreq); send delivers it to the child as the send ends. Each child's
// answer comes back through the returned Gather's Reply; once all are in,
// the agent ranks the candidates and sends the list up, and up receives
// it.
func (a *Agent[K, C]) Schedule(send func(K, *Gather[K, C]), up func([]C)) *Gather[K, C] {
	g := &Gather[K, C]{a: a, up: up}
	a.Port.Do(a.Costs.AgentSreq/a.Link+a.Costs.AgentWreq/a.Power, func() {
		g.want = len(a.Children)
		for _, child := range a.Children {
			a.Port.Do(a.Costs.AgentSreq/a.Link, func() { send(child, g) })
		}
		if g.want == 0 {
			g.finish(a.Link)
		}
	})
	return g
}

// Reply receives one child's reply (Eq. 1's d·Srep) and adds its
// candidates; the last awaited reply finishes the gather. A reply to a
// gather already finished is charged and dropped.
func (g *Gather[K, C]) Reply(cs []C) {
	link := g.a.Link
	g.a.Port.Do(g.a.Costs.AgentSrep/link, func() {
		if g.done {
			return
		}
		g.all = append(g.all, cs...)
		g.got++
		if g.got == g.want {
			g.finish(link)
		}
	})
}

// Drop stops waiting for one child's reply: its request could not be
// sent.
func (g *Gather[K, C]) Drop() {
	g.want--
	if !g.done && g.got >= g.want {
		g.finish(g.a.Link)
	}
}

// Close finishes the gather with the replies it has, unless it finished
// already: the executor gave up waiting for the rest.
func (g *Gather[K, C]) Close() {
	if !g.done {
		g.finish(g.a.Link)
	}
}

// finish ranks the candidates — the Wrep(d) selection of Eq. 5 — and sends
// the list up (Eq. 2's Srep) as one occupation, then hands it to up.
func (g *Gather[K, C]) finish(link float64) {
	g.done = true
	a := g.a
	a.Port.Do(a.Costs.WrepAgent(len(a.Children))/a.Power+a.Costs.AgentSrep/link, func() {
		Rank(g.all)
		g.up(g.all)
	})
}

// ReplySend is the part of the agent's ranking occupation that sends the
// ranked list up; the rest is the ranking itself, Wrep(d).
func (a *Agent[K, C]) ReplySend() float64 { return a.Costs.AgentSrep / a.Link }

// Predict runs a server's side of one scheduling request: receiving it,
// predicting (Wpre) and sending the reply (Eqs. 3 and 4 and Eq. 14's
// prediction term) as one occupation of the priority lane, where a real
// server answers it while batch service jobs wait. reply runs as it ends,
// which is when the server reads its estimate.
func Predict(p Port, c *model.Costs, power, link float64, reply func()) {
	p.DoPriority(c.ServerSreq/link+c.ServerWpre/power+c.ServerSrep/link, reply)
}

// Estimate is a server's expected completion time for one more service
// request: the pending requests it has accepted and not finished, and the
// new one, each at the power its predictions believe in (rated). It is
// the earliest-completion metric DIET's performance prediction reports.
func Estimate(pending int, wapp, rated float64) float64 {
	return float64(pending+1) * (wapp / rated)
}

// Serve accepts one service request at a server: it counts the request
// pending, then charges receiving it, computing for compute seconds and
// sending the response (Eq. 15's per-request terms) as one occupation of
// the normal lane, and calls done once the request is no longer pending.
func Serve(p Port, c *model.Costs, link, compute float64, pending *int, done func()) {
	*pending++
	p.Do(c.ServerSreq/link+compute+c.ServerSrep/link, func() {
		*pending--
		done()
	})
}
