package sim

import (
	"fmt"
	"slices"
	"sort"

	"adept/internal/hierarchy"
	"adept/internal/model"
)

// This file adds live management to the simulator: a time-varying
// background-load scenario (the §5.3 heterogenisation replayed *during* a
// run instead of before it) and in-place reconfiguration of a running
// deployment. Together they let the autonomic MAPE-K loop be exercised and
// benchmarked end-to-end in deterministic simulated time: drift is
// injected on schedule, the monitor samples measurement windows, and
// patches are applied to the same running deployment the clients keep
// driving.

// LoadPhase is one step of a background-load scenario. The JSON form is
// the drift schedule of POST /v1/autonomic/start and of adeptsoak's report.
type LoadPhase struct {
	// At is the simulated time (seconds) the phase starts.
	At float64 `json:"at"`
	// Factors maps server names to background-load slowdown factors:
	// effective compute speed becomes power/factor. Servers not named keep
	// their current factor. Factor 1 removes the load.
	Factors map[string]float64 `json:"factors,omitempty"`
	// AddClients starts that many extra closed-loop clients at At,
	// modelling a demand shift.
	AddClients int `json:"add_clients,omitempty"`
	// RemoveClients asks that many closed-loop clients to leave at At
	// (each departs at its next submission boundary) — the downswing of a
	// demand trace.
	RemoveClients int `json:"remove_clients,omitempty"`
	// Crash marks the named servers dead at At: they keep answering
	// scheduling (stale monitoring) but every service request to them
	// times out and fails. Restore revives servers crashed earlier.
	Crash   []string `json:"crash,omitempty"`
	Restore []string `json:"restore,omitempty"`
}

// Managed is a running simulated deployment under autonomic management:
// closed-loop clients drive it continuously, a load scenario injects
// drift, and reconfiguration ops patch it in place while it runs.
type Managed struct {
	eng *Engine
	dep *Deployment

	// tree is the deployed hierarchy every op is judged against; byName
	// finds the *simAgent or *simServer behind each of its nodes.
	tree   *hierarchy.Hierarchy
	byName map[string]any

	// window baselines for Observe deltas.
	lastCompleted int64
	lastFailed    int64
	lastServed    map[string]int64
	lastSvcSec    map[string]float64
	lastSvcCount  map[string]int64
}

// NewManaged instantiates h inside a fresh engine, starts the closed-loop
// clients, and schedules the load scenario.
func NewManaged(h *hierarchy.Hierarchy, costs model.Costs, bandwidth, wapp float64, clients int, scenario []LoadPhase) (*Managed, error) {
	if clients < 1 {
		return nil, fmt.Errorf("sim: managed deployment needs at least one client, got %d", clients)
	}
	eng := NewEngine()
	dep, err := Instantiate(eng, h, costs, bandwidth, wapp)
	if err != nil {
		return nil, err
	}
	m := &Managed{
		eng:          eng,
		dep:          dep,
		tree:         h.Clone(),
		byName:       make(map[string]any),
		lastServed:   make(map[string]int64),
		lastSvcSec:   make(map[string]float64),
		lastSvcCount: make(map[string]int64),
	}
	for _, a := range dep.agents {
		m.byName[a.Name] = a
	}
	for _, s := range dep.servers {
		m.byName[s.name] = s
	}
	for i := 0; i < clients; i++ {
		dep.StartClient(0)
	}
	for _, phase := range scenario {
		phase := phase
		if phase.At < 0 {
			return nil, fmt.Errorf("sim: load phase at negative time %g", phase.At)
		}
		// Validate and later apply factors in sorted-name order: which
		// unknown element gets reported, and the order servers pick up
		// new background load inside the DES, must not depend on map
		// iteration order.
		factorNames := make([]string, 0, len(phase.Factors))
		for name := range phase.Factors {
			factorNames = append(factorNames, name)
		}
		sort.Strings(factorNames)
		for _, name := range factorNames {
			if _, ok := m.byName[name]; !ok {
				return nil, fmt.Errorf("sim: load phase names unknown element %q", name)
			}
		}
		for _, name := range phase.Crash {
			if _, ok := m.byName[name].(*simServer); !ok {
				return nil, fmt.Errorf("sim: crash phase names unknown server %q", name)
			}
		}
		for _, name := range phase.Restore {
			if _, ok := m.byName[name].(*simServer); !ok {
				return nil, fmt.Errorf("sim: restore phase names unknown server %q", name)
			}
		}
		eng.At(phase.At, func() {
			for _, name := range factorNames {
				if srv, ok := m.byName[name].(*simServer); ok && phase.Factors[name] > 0 {
					srv.bg = phase.Factors[name]
				}
			}
			// Crash/restore by name, tolerating servers the autonomic loop
			// already removed by the time the phase fires.
			for _, name := range phase.Crash {
				if srv, ok := m.byName[name].(*simServer); ok {
					srv.crashed = true
				}
			}
			for _, name := range phase.Restore {
				if srv, ok := m.byName[name].(*simServer); ok {
					srv.crashed = false
				}
			}
			for i := 0; i < phase.AddClients; i++ {
				dep.StartClient(eng.Now())
			}
			dep.StopClients(phase.RemoveClients)
		})
	}
	return m, nil
}

// Now returns the current simulated time.
func (m *Managed) Now() float64 { return m.eng.Now() }

// WindowStats is one measurement window of a managed run: the Monitor
// stage's raw observation.
type WindowStats struct {
	// Window is the window length in simulated seconds.
	Window float64
	// Throughput is completed requests per simulated second.
	Throughput float64
	// Completed counts requests completed inside the window.
	Completed int64
	// Failed counts requests that timed out against crashed servers
	// inside the window.
	Failed int64
	// ActiveClients is the closed-loop client population at window end.
	ActiveClients int
	// Served is the per-server completion count inside the window.
	Served map[string]int64
	// ServiceSeconds is the per-server mean observed execution time inside
	// the window (absent for servers that served nothing).
	ServiceSeconds map[string]float64
}

// Observe advances the simulation by window seconds and reports what
// happened inside it.
func (m *Managed) Observe(window float64) (WindowStats, error) {
	if window <= 0 {
		return WindowStats{}, fmt.Errorf("sim: observation window %g must be positive", window)
	}
	m.eng.Run(m.eng.Now() + window)
	ws := WindowStats{
		Window:         window,
		Completed:      m.dep.Completed - m.lastCompleted,
		Failed:         m.dep.Failed - m.lastFailed,
		ActiveClients:  m.dep.ActiveClients(),
		Served:         make(map[string]int64),
		ServiceSeconds: make(map[string]float64),
	}
	m.lastCompleted = m.dep.Completed
	m.lastFailed = m.dep.Failed
	ws.Throughput = float64(ws.Completed) / window
	for _, s := range m.dep.servers {
		served := m.dep.PerServer[s.name] - m.lastServed[s.name]
		ws.Served[s.name] = served
		m.lastServed[s.name] = m.dep.PerServer[s.name]
		dSec := s.svcSeconds - m.lastSvcSec[s.name]
		dCnt := s.svcCount - m.lastSvcCount[s.name]
		m.lastSvcSec[s.name] = s.svcSeconds
		m.lastSvcCount[s.name] = s.svcCount
		if dCnt > 0 {
			ws.ServiceSeconds[s.name] = dSec / float64(dCnt)
		}
	}
	return ws, nil
}

// Crash marks a deployed server dead immediately (scenarios do the same
// on schedule): it keeps answering scheduling but fails every service
// request until Restore or eviction.
func (m *Managed) Crash(name string) error {
	srv, ok := m.byName[name].(*simServer)
	if !ok {
		return fmt.Errorf("sim: no server %q", name)
	}
	srv.crashed = true
	return nil
}

// Restore revives a crashed server.
func (m *Managed) Restore(name string) error {
	srv, ok := m.byName[name].(*simServer)
	if !ok {
		return fmt.Errorf("sim: no server %q", name)
	}
	srv.crashed = false
	return nil
}

// AddClients starts n extra closed-loop clients now.
func (m *Managed) AddClients(n int) {
	for i := 0; i < n; i++ {
		m.dep.StartClient(m.eng.Now())
	}
}

// StopClients asks n closed-loop clients to leave at their next
// submission boundary.
func (m *Managed) StopClients(n int) { m.dep.StopClients(n) }

// ActiveClients returns the current closed-loop client population.
func (m *Managed) ActiveClients() int { return m.dep.ActiveClients() }

// Completed returns the cumulative completed-request count.
func (m *Managed) Completed() int64 { return m.dep.Completed }

// Failed returns the cumulative failed (timed-out) request count.
func (m *Managed) Failed() int64 { return m.dep.Failed }

// Latencies returns the sampled request latencies in seconds.
func (m *Managed) Latencies() []float64 { return m.dep.Latencies() }

// --- live reconfiguration ------------------------------------------------

// ApplyOp carries out one reconfiguration op on the running simulation.
// hierarchy.Step judges the op against the deployed tree; a refused op
// changes nothing. An accepted one edits the simulated entities: an added
// element joins from the next scheduling broadcast, a removed one finishes
// the requests it already accepted, a moved agent takes its subtree along,
// a promoted or demoted node keeps its resource (and busy-time accounting),
// and a set-power refreshes a server's rated power and the node's link
// (zero meaning the deployment default, as on add).
func (m *Managed) ApplyOp(op hierarchy.Op) error {
	next, err := hierarchy.Step(m.tree, op)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	switch op.Kind {
	case hierarchy.OpAdd:
		var ent any
		if op.Role == hierarchy.RoleAgent {
			ent = m.dep.newAgent(op.Name, op.Power, m.link(op.Bandwidth), NewResource(m.eng))
		} else {
			ent = m.dep.newServer(op.Name, op.Power, m.link(op.Bandwidth), NewResource(m.eng))
		}
		m.attach(op.Parent, op.Name, ent)
	case hierarchy.OpRemove:
		m.detach(op.Name)
		delete(m.byName, op.Name)
		m.dep.agents = filterAgents(m.dep.agents, op.Name)
		m.dep.servers = filterServers(m.dep.servers, op.Name)
	case hierarchy.OpReparent:
		ent := m.byName[op.Name]
		m.detach(op.Name)
		m.attach(op.Parent, op.Name, ent)
	case hierarchy.OpSetPower:
		switch ent := m.byName[op.Name].(type) {
		case *simServer:
			ent.rated, ent.bw = op.Power, m.link(op.Bandwidth)
		case *simAgent:
			ent.Link = m.link(op.Bandwidth)
		}
	case hierarchy.OpPromote:
		srv := m.byName[op.Name].(*simServer)
		parent := m.detach(op.Name)
		m.dep.servers = filterServers(m.dep.servers, op.Name)
		m.attach(parent, op.Name, m.dep.newAgent(op.Name, srv.power, srv.bw, srv.res))
	case hierarchy.OpDemote:
		a := m.byName[op.Name].(*simAgent)
		parent := m.detach(op.Name)
		m.dep.agents = filterAgents(m.dep.agents, op.Name)
		m.attach(parent, op.Name, m.dep.newServer(op.Name, a.Power, a.Link, a.Port.(*Resource)))
	}
	m.tree = next
	return nil
}

// ApplyPatch applies a patch op by op, stopping at the first failure; the
// count says how many ops were applied.
func (m *Managed) ApplyPatch(p hierarchy.Patch) (int, error) { return hierarchy.ApplyEach(m, p) }

// Snapshot returns a copy of the deployed hierarchy: the rated powers of
// every set-power so far, and each node's link as the ops recorded it.
func (m *Managed) Snapshot() *hierarchy.Hierarchy { return m.tree.Clone() }

// attach hooks a deployed element under the named parent agent.
func (m *Managed) attach(parent, name string, ent any) {
	m.byName[name] = ent
	p := m.byName[parent].(*simAgent)
	p.Children = append(p.Children, ent)
}

// link resolves an op's link bandwidth against the deployment default.
func (m *Managed) link(bw float64) float64 {
	if bw == 0 {
		return m.dep.bw
	}
	return bw
}

// detach unhooks a non-root element from its parent agent's children and
// returns that parent's name, as the deployed tree names it.
func (m *Managed) detach(name string) string {
	n, _ := m.tree.Lookup(name)
	parent := m.tree.MustNode(n.Parent).Name
	p := m.byName[parent].(*simAgent)
	ent := m.byName[name]
	p.Children = slices.DeleteFunc(p.Children, func(c any) bool { return c == ent })
	return parent
}

func filterAgents(in []*simAgent, name string) []*simAgent {
	return slices.DeleteFunc(in, func(a *simAgent) bool { return a.Name == name })
}

func filterServers(in []*simServer, name string) []*simServer {
	return slices.DeleteFunc(in, func(s *simServer) bool { return s.name == name })
}
