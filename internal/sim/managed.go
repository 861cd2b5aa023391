package sim

import (
	"fmt"
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

	byName   map[string]entity
	parentOf map[string]*simAgent

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
		byName:       make(map[string]entity),
		parentOf:     make(map[string]*simAgent),
		lastServed:   make(map[string]int64),
		lastSvcSec:   make(map[string]float64),
		lastSvcCount: make(map[string]int64),
	}
	m.indexTree()
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

// indexTree rebuilds the name and parent indexes from the deployment.
func (m *Managed) indexTree() {
	for _, a := range m.dep.agents {
		m.byName[a.name] = a
	}
	for _, s := range m.dep.servers {
		m.byName[s.name] = s
	}
	for _, a := range m.dep.agents {
		for _, child := range a.children {
			switch c := child.(type) {
			case *simAgent:
				m.parentOf[c.name] = a
			case *simServer:
				m.parentOf[c.name] = a
			}
		}
	}
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

// liveLink resolves the optional link-bandwidth argument of a live add
// against the deployment's default bandwidth.
func (m *Managed) liveLink(linkBW []float64) (float64, error) {
	if len(linkBW) == 0 || linkBW[0] == 0 {
		return m.dep.bw, nil
	}
	if linkBW[0] < 0 {
		return 0, fmt.Errorf("sim: negative link bandwidth %g", linkBW[0])
	}
	return linkBW[0], nil
}

// AddServer deploys a new server under an existing agent while the
// simulation runs; it participates from the next scheduling broadcast.
// The optional trailing argument is the node's link bandwidth (zero or
// omitted = the deployment default).
func (m *Managed) AddServer(parentName, name string, power float64, linkBW ...float64) error {
	parent, err := m.agent(parentName)
	if err != nil {
		return err
	}
	if _, dup := m.byName[name]; dup {
		return fmt.Errorf("sim: element %q already deployed", name)
	}
	if power <= 0 {
		return fmt.Errorf("sim: power %g must be positive", power)
	}
	bw, err := m.liveLink(linkBW)
	if err != nil {
		return err
	}
	s := &simServer{dep: m.dep, name: name, power: power, bw: bw, rated: power, bg: 1, res: NewResource(m.eng)}
	m.dep.servers = append(m.dep.servers, s)
	m.byName[name] = s
	parent.children = append(parent.children, s)
	m.parentOf[name] = parent
	return nil
}

// AddAgent deploys a new childless agent under an existing agent. The
// optional trailing argument is the node's link bandwidth.
func (m *Managed) AddAgent(parentName, name string, power float64, linkBW ...float64) error {
	parent, err := m.agent(parentName)
	if err != nil {
		return err
	}
	if _, dup := m.byName[name]; dup {
		return fmt.Errorf("sim: element %q already deployed", name)
	}
	if power <= 0 {
		return fmt.Errorf("sim: power %g must be positive", power)
	}
	bw, err := m.liveLink(linkBW)
	if err != nil {
		return err
	}
	a := &simAgent{dep: m.dep, name: name, power: power, bw: bw, res: NewResource(m.eng)}
	m.dep.agents = append(m.dep.agents, a)
	m.byName[name] = a
	parent.children = append(parent.children, a)
	m.parentOf[name] = parent
	return nil
}

// Remove undeploys a childless element. In-flight requests it already
// accepted complete normally (their events are scheduled); it just stops
// receiving new scheduling broadcasts.
func (m *Managed) Remove(name string) error {
	ent, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("sim: no element %q", name)
	}
	if a, isAgent := ent.(*simAgent); isAgent {
		if len(a.children) != 0 {
			return fmt.Errorf("sim: agent %q still has %d children", name, len(a.children))
		}
		if a == m.dep.root {
			return fmt.Errorf("sim: cannot remove the root")
		}
	}
	if err := m.detach(name, ent); err != nil {
		return err
	}
	delete(m.byName, name)
	delete(m.parentOf, name)
	m.dep.agents = filterAgents(m.dep.agents, name)
	m.dep.servers = filterServers(m.dep.servers, name)
	return nil
}

// Reparent moves an element (with its subtree, for agents) under a new
// parent agent.
func (m *Managed) Reparent(name, newParentName string) error {
	ent, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("sim: no element %q", name)
	}
	np, err := m.agent(newParentName)
	if err != nil {
		return err
	}
	// Reject cycles: walk up from the new parent.
	for cur := newParentName; cur != ""; {
		if cur == name {
			return fmt.Errorf("sim: reparenting %q under its own subtree", name)
		}
		p, ok := m.parentOf[cur]
		if !ok {
			break
		}
		cur = p.name
	}
	if err := m.detach(name, ent); err != nil {
		return err
	}
	np.children = append(np.children, ent)
	m.parentOf[name] = np
	return nil
}

// SetPower refreshes a server's rated power, feeding learned drift back
// into its predictions. For agents it is a planner-side bookkeeping change
// with no simulated effect.
func (m *Managed) SetPower(name string, power float64) error {
	if power <= 0 {
		return fmt.Errorf("sim: power %g must be positive", power)
	}
	switch ent := m.byName[name].(type) {
	case *simServer:
		ent.rated = power
	case *simAgent:
		// Agents run no service predictions; nothing to refresh.
	default:
		return fmt.Errorf("sim: no element %q", name)
	}
	return nil
}

// Promote converts a server into a (childless) agent on the same physical
// node, reusing its resource so busy-time accounting carries over.
func (m *Managed) Promote(name string) error {
	srv, ok := m.byName[name].(*simServer)
	if !ok {
		return fmt.Errorf("sim: no server %q", name)
	}
	parent := m.parentOf[name]
	if parent == nil {
		return fmt.Errorf("sim: cannot promote the root")
	}
	a := &simAgent{dep: m.dep, name: name, power: srv.power, bw: srv.bw, res: srv.res}
	if err := m.detach(name, srv); err != nil {
		return err
	}
	m.dep.servers = filterServers(m.dep.servers, name)
	m.dep.agents = append(m.dep.agents, a)
	m.byName[name] = a
	parent.children = append(parent.children, a)
	m.parentOf[name] = parent
	return nil
}

// Demote converts a childless agent back into a server.
func (m *Managed) Demote(name string) error {
	a, ok := m.byName[name].(*simAgent)
	if !ok {
		return fmt.Errorf("sim: no agent %q", name)
	}
	if len(a.children) != 0 {
		return fmt.Errorf("sim: agent %q still has %d children", name, len(a.children))
	}
	parent := m.parentOf[name]
	if parent == nil {
		return fmt.Errorf("sim: cannot demote the root")
	}
	s := &simServer{dep: m.dep, name: name, power: a.power, bw: a.bw, rated: a.power, bg: 1, res: a.res}
	if err := m.detach(name, a); err != nil {
		return err
	}
	m.dep.agents = filterAgents(m.dep.agents, name)
	m.dep.servers = append(m.dep.servers, s)
	m.byName[name] = s
	parent.children = append(parent.children, s)
	m.parentOf[name] = parent
	return nil
}

// ApplyOp applies one reconfiguration patch op to the running simulation.
func (m *Managed) ApplyOp(op hierarchy.Op) error {
	switch op.Kind {
	case hierarchy.OpAdd:
		if op.Role == hierarchy.RoleAgent {
			return m.AddAgent(op.Parent, op.Name, op.Power, op.Bandwidth)
		}
		return m.AddServer(op.Parent, op.Name, op.Power, op.Bandwidth)
	case hierarchy.OpRemove:
		return m.Remove(op.Name)
	case hierarchy.OpReparent:
		return m.Reparent(op.Name, op.Parent)
	case hierarchy.OpSetPower:
		return m.SetPower(op.Name, op.Power)
	case hierarchy.OpPromote:
		return m.Promote(op.Name)
	case hierarchy.OpDemote:
		return m.Demote(op.Name)
	}
	return fmt.Errorf("sim: unknown op kind %v", op.Kind)
}

// ApplyPatch applies a patch op by op, stopping at the first failure; the
// count says how many ops were applied.
func (m *Managed) ApplyPatch(p hierarchy.Patch) (int, error) {
	for i, op := range p.Ops {
		if err := m.ApplyOp(op); err != nil {
			return i, fmt.Errorf("sim: patch op %d (%s): %w", i, op, err)
		}
	}
	return len(p.Ops), nil
}

// ServerNames lists the currently deployed servers, sorted.
func (m *Managed) ServerNames() []string {
	names := make([]string, 0, len(m.dep.servers))
	for _, s := range m.dep.servers {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return names
}

func (m *Managed) agent(name string) (*simAgent, error) {
	a, ok := m.byName[name].(*simAgent)
	if !ok {
		return nil, fmt.Errorf("sim: no agent %q", name)
	}
	return a, nil
}

func (m *Managed) detach(name string, ent entity) error {
	parent := m.parentOf[name]
	if parent == nil {
		return fmt.Errorf("sim: element %q has no parent", name)
	}
	for i, c := range parent.children {
		if c == ent {
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("sim: element %q missing from parent %q", name, parent.name)
}

func filterAgents(in []*simAgent, name string) []*simAgent {
	out := in[:0]
	for _, a := range in {
		if a.name != name {
			out = append(out, a)
		}
	}
	return out
}

func filterServers(in []*simServer, name string) []*simServer {
	out := in[:0]
	for _, s := range in {
		if s.name != name {
			out = append(out, s)
		}
	}
	return out
}
