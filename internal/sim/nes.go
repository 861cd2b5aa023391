package sim

import (
	"fmt"
	"math"

	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/nes"
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
	// Failed counts requests that timed out against a crashed server or
	// found no candidate (the client retries after clientTimeout).
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

// simAgent is a deployed scheduling agent; its children are *simAgent and
// *simServer values.
type simAgent = nes.Agent[any, *simServer]

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

// Candidates are the servers themselves, compared by their *current*
// estimate wherever a ranking or pick happens, not by a value frozen when
// the server predicted: the paper's agents "select potential servers from a
// list of servers maintained in the database by frequent monitoring"
// (footnote 1), so comparison data is fresher than the in-band prediction.
// Without this, a deterministic simulator herds every request onto one
// server, because by the time a frozen prediction is compared the server's
// queue has drained. The full ranked list is forwarded up the tree, like
// DIET's response lists.

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
	var build func(id int) any
	build = func(id int) any {
		n := h.MustNode(id)
		if n.Role == hierarchy.RoleServer {
			return d.newServer(n.Name, n.Power, n.Link(bandwidth), NewResource(eng))
		}
		a := d.newAgent(n.Name, n.Power, n.Link(bandwidth), NewResource(eng))
		for _, c := range n.Children {
			a.Children = append(a.Children, build(c))
		}
		return a
	}
	root, ok := build(h.Root()).(*simAgent)
	if !ok {
		return nil, fmt.Errorf("sim: root is not an agent")
	}
	d.root = root
	return d, nil
}

// newAgent deploys an agent on a resource, with no children yet.
func (d *Deployment) newAgent(name string, power, bw float64, res *Resource) *simAgent {
	a := &simAgent{Name: name, Port: res, Costs: &d.costs, Power: power, Link: bw}
	d.agents = append(d.agents, a)
	return a
}

// newServer deploys a server on a resource, its predictions rating it at
// its physical power.
func (d *Deployment) newServer(name string, power, bw float64, res *Resource) *simServer {
	s := &simServer{dep: d, name: name, power: power, bw: bw, rated: power, bg: 1, res: res}
	d.servers = append(d.servers, s)
	return s
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

// send delivers a scheduling request an agent forwarded to child, an agent
// or a server, and routes the child's reply into g.
func (d *Deployment) send(child any, g *nes.Gather[any, *simServer]) {
	switch c := child.(type) {
	case *simAgent:
		c.Schedule(d.send, g.Reply)
	case *simServer:
		nes.Predict(c.res, &d.costs, c.power, c.bw, func() { g.Reply([]*simServer{c}) })
	}
}

// Completion is this server's current estimate (nes.Estimate): the
// backlog of already-selected requests plus its own execution, normalised
// by the *rated* power. Rated power goes stale under background-load drift
// until a SetPower patch refreshes it: exactly the mis-scheduling the
// autonomic loop corrects.
func (s *simServer) Completion() float64 {
	return nes.Estimate(s.pending, s.dep.wapp, s.rated)
}

// --- service phase ----------------------------------------------------

// submitService runs the service phase on the selected server.
func (d *Deployment) submitService(s *simServer, onDone func()) {
	if s.crashed {
		// The request is sent into a dead node: no service ever runs, the
		// client burns its reply timeout, counts the request as failed,
		// and retries (onDone resumes the closed loop). pending still
		// rises and falls so the node's advertised estimate behaves like a
		// loaded-but-alive server — exactly the stale-monitoring trap that
		// keeps attracting traffic until the autonomic loop evicts it.
		s.pending++
		d.eng.At(d.eng.Now()+clientTimeout, func() {
			s.pending--
			d.fail(onDone)
		})
		return
	}
	compute := d.wapp * s.bg / s.power
	nes.Serve(s.res, &d.costs, s.bw, compute, &s.pending, func() {
		s.svcSeconds += compute
		s.svcCount++
		d.Completed++
		d.PerServer[s.name]++
		onDone()
	})
}

// fail counts a request that timed out and resumes its client.
func (d *Deployment) fail(onDone func()) {
	d.Failed++
	onDone()
}

// --- clients ------------------------------------------------------------

// Submit runs one complete request (scheduling phase then service phase),
// calling onDone when the service response is back.
func (d *Deployment) Submit(onDone func()) {
	start := d.eng.Now()
	d.root.Schedule(d.send, func(servers []*simServer) {
		d.SchedCompleted++
		if len(servers) == 0 {
			// An agent left without children (mid-reconfiguration) answers
			// with no candidate: the client times out and retries.
			d.eng.After(clientTimeout, func() { d.fail(onDone) })
			return
		}
		// Final selection by *current* estimate, which may differ from the
		// ranking at merge time (the client-visible "scheduling response"
		// of Fig. 1 carries the ranked list).
		d.submitService(nes.Pick(servers), func() {
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
		out[a.Name] = math.Min(1, a.Port.(*Resource).BusyTime/t)
	}
	for _, s := range d.servers {
		out[s.name] = math.Min(1, s.res.BusyTime/t)
	}
	return out
}
