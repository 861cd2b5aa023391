package sim

import (
	"fmt"
	"math"
	"sort"

	"adept/internal/hierarchy"
	"adept/internal/model"
)

// Deployment is a hierarchy instantiated inside the simulator: one Resource
// per physical node, the two-phase NES protocol wired between them, and
// closed-loop clients driving load.
type Deployment struct {
	eng   *Engine
	costs model.Costs
	bw    float64
	wapp  float64

	root    *simAgent
	agents  []*simAgent
	servers []*simServer

	// Completed counts fully completed requests (service response received).
	Completed int64
	// SchedCompleted counts scheduling phases completed at the root.
	SchedCompleted int64
	// Failed counts service requests that timed out against a crashed
	// server (the client retries after clientTimeout).
	Failed int64
	// PerServer counts service completions per server, in deployment order.
	PerServer map[string]int64

	// stopRequests asks that many closed-loop clients to exit at their
	// next submission boundary; activeClients tracks how many still loop.
	stopRequests  int
	activeClients int

	// latencies samples completed-request latencies (seconds), capped at
	// maxLatencySamples.
	latencies []float64
}

// maxLatencySamples bounds latency memory on long runs.
const maxLatencySamples = 1 << 17

// recordLatency samples one completed request's latency.
func (d *Deployment) recordLatency(start float64) {
	if len(d.latencies) < maxLatencySamples {
		d.latencies = append(d.latencies, d.eng.Now()-start)
	}
}

// Latencies returns the sampled request latencies in seconds.
func (d *Deployment) Latencies() []float64 {
	return append([]float64(nil), d.latencies...)
}

// simAgent is a deployed scheduling agent.
type simAgent struct {
	dep      *Deployment
	name     string
	power    float64
	bw       float64 // the node's own link bandwidth
	res      *Resource
	children []entity
}

// simServer is a deployed computational server (SeD).
type simServer struct {
	dep   *Deployment
	name  string
	power float64 // physical speed the node actually delivers
	bw    float64 // the node's own link bandwidth
	res   *Resource

	// rated is the power the server's predictions believe in. It starts at
	// the physical power; SetPower patches refresh it when drift is
	// learned. The gap between rated and effective speed is the drift the
	// autonomic loop detects.
	rated float64

	// bg is the background-load slowdown factor (1 = unloaded): effective
	// compute speed is power/bg, the §5.3 heterogenisation applied live.
	bg float64

	pending int // service requests selected-but-not-finished (for prediction)

	// crashed marks a dead node: it still appears in scheduling replies —
	// the agents' monitoring database is refreshed asynchronously and
	// keeps advertising the node until the autonomic loop evicts it — but
	// service requests sent to it time out and fail instead of completing.
	crashed bool

	// svcSeconds/svcCount accumulate observed execution times, the
	// monitoring signal of the autonomic loop.
	svcSeconds float64
	svcCount   int64
}

// entity is the common scheduling-phase interface of agents and servers.
type entity interface {
	// deliverSched delivers a scheduling request arriving on this node's
	// port; replyTo fires after this node's reply has been fully sent.
	deliverSched(replyTo func(schedResult))
}

// schedResult is the reply flowing back up: the candidate servers of the
// subtree, sorted best-first ("response sorted & forwarded up", Fig. 1
// step 4). Candidates are compared by their *current* expected completion
// time (estimate) wherever a sort or selection happens, not by a value
// frozen when the server computed its prediction: the paper's agents
// "select potential servers from a list of servers maintained in the
// database by frequent monitoring" (footnote 1), so comparison data is
// fresher than the in-band prediction. Without this, a deterministic
// simulator herds every request onto one server, because by the time a
// frozen prediction is compared the server's queue has drained.
type schedResult struct {
	servers []*simServer
}

// Note: the full sorted candidate list is forwarded up the tree, like
// DIET's response lists. Truncating it (an earlier design) starves all but
// the top few servers under heavy concurrent load, because batches of
// requests aggregated back-to-back would share the same truncated list.

// Instantiate builds a simulated deployment from a hierarchy. bandwidth
// is the default link bandwidth; nodes carrying a per-node override
// (hierarchy.Node.Bandwidth, planned from a multi-cluster platform) send,
// receive, and transfer at their own link speed — every occupation that
// divides a message size by a bandwidth uses the occupying node's link.
func Instantiate(eng *Engine, h *hierarchy.Hierarchy, costs model.Costs, bandwidth, wapp float64) (*Deployment, error) {
	if err := h.Validate(hierarchy.Structural); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if bandwidth <= 0 || wapp <= 0 {
		return nil, fmt.Errorf("sim: bandwidth (%g) and wapp (%g) must be positive", bandwidth, wapp)
	}
	d := &Deployment{
		eng:       eng,
		costs:     costs,
		bw:        bandwidth,
		wapp:      wapp,
		PerServer: make(map[string]int64),
	}
	var build func(id int) entity
	build = func(id int) entity {
		n := h.MustNode(id)
		if n.Role == hierarchy.RoleServer {
			s := &simServer{dep: d, name: n.Name, power: n.Power, bw: n.Link(bandwidth), rated: n.Power, bg: 1, res: NewResource(eng)}
			d.servers = append(d.servers, s)
			return s
		}
		a := &simAgent{dep: d, name: n.Name, power: n.Power, bw: n.Link(bandwidth), res: NewResource(eng)}
		d.agents = append(d.agents, a)
		for _, c := range n.Children {
			a.children = append(a.children, build(c))
		}
		return a
	}
	rootEnt := build(h.Root())
	root, ok := rootEnt.(*simAgent)
	if !ok {
		return nil, fmt.Errorf("sim: root is not an agent")
	}
	d.root = root
	return d, nil
}

// --- scheduling phase -------------------------------------------------

// A note on activity granularity: each request's contiguous work on a node
// (e.g. receive + process, or compute + respond) is modelled as a single
// occupation of the summed duration. Splitting the stages into separate
// queue entries would let a burst of B requests "layer": all B receives
// first, then all B computations, with every response transmitted only
// after the last computation — an artifact no real system exhibits (a
// server writes a ready response before picking up the next queued job).
// The summed occupation is exactly what the §3 model integrates per
// request, so predicted and measured throughput still agree.

// deliverSched implements entity for agents: receive the request, process
// it (Wreq), forward serially to every child, collect the replies, select
// the best server (Wrep), and send the reply up.
func (a *simAgent) deliverSched(replyTo func(schedResult)) {
	c, bw := a.dep.costs, a.bw
	// Eq. 1 request part + Eq. 5 Wreq part.
	a.res.Do(c.AgentSreq/bw+c.AgentWreq/a.power, func() {
		a.broadcast(replyTo)
	})
}

// broadcast forwards the request to every child and aggregates replies.
func (a *simAgent) broadcast(replyTo func(schedResult)) {
	c, bw := a.dep.costs, a.bw
	d := len(a.children)
	agg := &aggregator{want: d}
	for _, child := range a.children {
		child := child
		// The send occupies the agent's port (Eq. 2, d·Sreq part); its
		// completion delivers the message to the child's port.
		a.res.Do(c.AgentSreq/bw, func() {
			child.deliverSched(func(r schedResult) {
				a.receiveReply(agg, r, replyTo)
			})
		})
	}
}

// receiveReply accounts one child reply (Eq. 1, d·Srep part); once all
// replies are in, the agent runs the selection computation Wrep(d) (Eq. 5)
// and sends the merged reply to its parent (Eq. 2, Srep part).
func (a *simAgent) receiveReply(agg *aggregator, r schedResult, replyTo func(schedResult)) {
	c, bw := a.dep.costs, a.bw
	a.res.Do(c.AgentSrep/bw, func() {
		agg.add(r)
		if !agg.complete() {
			return
		}
		d := len(a.children)
		// Wrep(d) selection plus the reply transmission (Eq. 2, Srep part),
		// as one contiguous occupation.
		a.res.Do(c.WrepAgent(d)/a.power+c.AgentSrep/bw, func() {
			replyTo(agg.merged())
		})
	})
}

// aggregator collects children replies and merges their candidate lists.
type aggregator struct {
	want int
	got  int
	all  []*simServer
}

func (g *aggregator) add(r schedResult) {
	g.all = append(g.all, r.servers...)
	g.got++
}

// merged sorts the collected candidates best-first by current estimate
// (stable, so ties keep child order like DIET's sort) — the work the
// Wrep(d) computation cost accounts for.
func (g *aggregator) merged() schedResult {
	sort.SliceStable(g.all, func(i, j int) bool {
		return g.all[i].estimate() < g.all[j].estimate()
	})
	return schedResult{servers: g.all}
}

func (g *aggregator) complete() bool { return g.got == g.want }

// deliverSched implements entity for servers: receive the request, compute
// the performance prediction (Wpre), and send the reply back.
func (s *simServer) deliverSched(replyTo func(schedResult)) {
	c, bw := s.dep.costs, s.bw
	// Scheduling-phase work takes the priority lane: predictions are tiny
	// interactive operations that a real server answers while batch service
	// jobs wait; see Resource for why the simulator must model this.
	// Eq. 3 receive + prediction + Eq. 4 reply, one contiguous occupation.
	s.res.DoPriority(c.ServerSreq/bw+c.ServerWpre/s.power+c.ServerSrep/bw, func() {
		replyTo(schedResult{servers: []*simServer{s}})
	})
}

// estimate is this server's current expected completion time for one more
// service request: the backlog of already-selected requests plus its own
// execution, normalised by the *rated* power — the earliest-completion
// metric DIET's performance prediction feeds into the agents' monitoring
// database. Rated power goes stale under background-load drift until a
// SetPower patch refreshes it: exactly the mis-scheduling the autonomic
// loop corrects.
func (s *simServer) estimate() float64 {
	return float64(s.pending+1) * (s.dep.wapp / s.rated)
}

// --- service phase ----------------------------------------------------

// submitService runs the service phase on the selected server: request
// receive + execution + response (Eq. 15's per-request terms) as one
// contiguous occupation.
func (d *Deployment) submitService(s *simServer, onDone func()) {
	c, bw := d.costs, s.bw
	s.pending++
	if s.crashed {
		// The request is sent into a dead node: no service ever runs, the
		// client burns its reply timeout, counts the request as failed,
		// and retries (onDone resumes the closed loop). pending still
		// rises and falls so the node's advertised estimate behaves like a
		// loaded-but-alive server — exactly the stale-monitoring trap that
		// keeps attracting traffic until the autonomic loop evicts it.
		d.eng.At(d.eng.Now()+clientTimeout, func() {
			s.pending--
			d.Failed++
			onDone()
		})
		return
	}
	compute := d.wapp * s.bg / s.power
	s.res.Do(c.ServerSreq/bw+compute+c.ServerSrep/bw, func() {
		s.pending--
		s.svcSeconds += compute
		s.svcCount++
		d.Completed++
		d.PerServer[s.name]++
		onDone()
	})
}

// --- clients ------------------------------------------------------------

// Submit runs one complete request (scheduling phase then service phase),
// calling onDone when the service response is back.
func (d *Deployment) Submit(onDone func()) {
	start := d.eng.Now()
	d.root.deliverSched(func(r schedResult) {
		d.SchedCompleted++
		if len(r.servers) == 0 {
			// No server replied — cannot happen on validated hierarchies,
			// but fail loudly in case of protocol bugs.
			panic("sim: scheduling reply carries no server")
		}
		// Final selection: the best candidate by *current* estimate, which
		// may differ from the ranking at merge time (the client-visible
		// "scheduling response" of Fig. 1 carries the sorted list).
		best := r.servers[0]
		for _, s := range r.servers[1:] {
			if s.estimate() < best.estimate() {
				best = s
			}
		}
		d.submitService(best, func() {
			d.recordLatency(start)
			onDone()
		})
	})
}

// clientTimeout is how long simulated clients wait on a dead
// server before retrying. One second is long against service times
// (milliseconds at the paper's scales) and short against measurement
// windows, like real middleware RPC timeouts.
const clientTimeout = 1.0

// StartClient launches a closed-loop client at the given simulation time:
// it submits one request at a time in a continual loop (§5.1). The loop
// exits when StopClients has asked for departures.
func (d *Deployment) StartClient(at float64) {
	var loop func()
	loop = func() {
		if d.stopRequests > 0 {
			d.stopRequests--
			d.activeClients--
			return
		}
		d.Submit(loop)
	}
	d.eng.At(at, func() {
		d.activeClients++
		loop()
	})
}

// StopClients asks n closed-loop clients to leave; each departs at its
// next submission boundary (an in-flight request finishes first). Asking
// for more departures than active clients leaves the surplus pending
// against clients that start later.
func (d *Deployment) StopClients(n int) {
	if n > 0 {
		d.stopRequests += n
	}
}

// ActiveClients returns the number of clients currently looping.
func (d *Deployment) ActiveClients() int { return d.activeClients }

// Utilization reports per-node busy fraction over the elapsed simulation
// time; useful for locating bottlenecks in measured deployments.
func (d *Deployment) Utilization() map[string]float64 {
	out := make(map[string]float64, len(d.agents)+len(d.servers))
	t := d.eng.Now()
	if t <= 0 {
		return out
	}
	for _, a := range d.agents {
		out[a.name] = math.Min(1, a.res.BusyTime/t)
	}
	for _, s := range d.servers {
		out[s.name] = math.Min(1, s.res.BusyTime/t)
	}
	return out
}
