package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adept/internal/hierarchy"
)

// member is the system's bookkeeping view of one deployed element: the
// source of truth for Snapshot(), kept in sync by the reconfiguration
// primitives. Power here is the *rated* power (the planner's belief),
// which SetPower patches refresh when the monitor learns drift.
type member struct {
	role     hierarchy.Role
	power    float64
	parent   string // "" for the root
	children []string
}

// System is a deployed middleware instance: the live realisation of one
// planned hierarchy. It supports live reconfiguration — AddServer,
// RemoveServer, Reparent, PromoteServer, DemoteAgent, SetPower — with
// drain/quiesce semantics: in-flight requests complete, clients ride
// through patches with at most per-request failures.
type System struct {
	opts      Options
	transport Transport
	root      string
	name      string

	mu      sync.RWMutex
	agents  map[string]*agentElem
	servers map[string]*serverElem
	topo    map[string]*member

	clientEpoch atomic.Uint64

	wg      sync.WaitGroup
	started bool
	stopped atomic.Bool

	errMu  sync.Mutex
	errLog []error
}

// Deploy instantiates the hierarchy on the transport and starts every
// element's goroutine. The caller owns the returned System and must Stop it.
func Deploy(h *hierarchy.Hierarchy, transport Transport, opts Options) (*System, error) {
	if err := h.Validate(hierarchy.Structural); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	if opts.Bandwidth <= 0 {
		return nil, errors.New("runtime: bandwidth must be positive")
	}
	if opts.Wapp <= 0 {
		return nil, errors.New("runtime: wapp must be positive")
	}
	sys := &System{
		opts:      opts,
		transport: transport,
		name:      h.Name,
		agents:    make(map[string]*agentElem),
		servers:   make(map[string]*serverElem),
		topo:      make(map[string]*member),
	}

	type pendingStart struct {
		run   func(<-chan Envelope)
		inbox <-chan Envelope
	}
	var starts []pendingStart

	var build func(id int, parentName string) (string, error)
	build = func(id int, parentName string) (string, error) {
		n := h.MustNode(id)
		inbox, err := transport.Register(n.Name)
		if err != nil {
			return "", err
		}
		sys.topo[n.Name] = &member{role: n.Role, power: n.Power, parent: parentName}
		if n.Role == hierarchy.RoleServer {
			s := newServerElem(sys, n.Name, n.Power)
			sys.servers[n.Name] = s
			starts = append(starts, pendingStart{run: s.run, inbox: inbox})
			return n.Name, nil
		}
		a := newAgentElem(sys, n.Name, n.Power)
		sys.agents[n.Name] = a
		for _, c := range n.Children {
			childName, err := build(c, n.Name)
			if err != nil {
				return "", err
			}
			a.children = append(a.children, childName)
			sys.topo[n.Name].children = append(sys.topo[n.Name].children, childName)
		}
		starts = append(starts, pendingStart{run: a.run, inbox: inbox})
		return n.Name, nil
	}
	rootName, err := build(h.Root(), "")
	if err != nil {
		transport.Close()
		return nil, err
	}
	sys.root = rootName
	for _, st := range starts {
		sys.wg.Add(1)
		go st.run(st.inbox)
	}
	sys.started = true
	return sys, nil
}

func newAgentElem(sys *System, name string, power float64) *agentElem {
	return &agentElem{
		sys:     sys,
		name:    name,
		power:   power,
		pending: make(map[uint64]*replyAgg),
		done:    make(chan struct{}),
	}
}

func newServerElem(sys *System, name string, power float64) *serverElem {
	return &serverElem{sys: sys, name: name, power: power, done: make(chan struct{})}
}

// Snapshot reconstructs the currently deployed hierarchy from the system's
// topology bookkeeping. The autonomic loop diffs this snapshot against a
// freshly replanned tree; powers are the *rated* powers, including every
// SetPower patch applied so far.
func (s *System) Snapshot() (*hierarchy.Hierarchy, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := hierarchy.New(s.name)
	rootM, ok := s.topo[s.root]
	if !ok {
		return nil, errors.New("runtime: root missing from topology")
	}
	rootID, err := h.AddRoot(s.root, rootM.power)
	if err != nil {
		return nil, err
	}
	var build func(parentID int, m *member) error
	build = func(parentID int, m *member) error {
		for _, childName := range m.children {
			cm, ok := s.topo[childName]
			if !ok {
				return fmt.Errorf("runtime: child %q missing from topology", childName)
			}
			var id int
			var err error
			if cm.role == hierarchy.RoleAgent {
				id, err = h.AddAgent(parentID, childName, cm.power)
			} else {
				id, err = h.AddServer(parentID, childName, cm.power)
			}
			if err != nil {
				return err
			}
			if err := build(id, cm); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(rootID, rootM); err != nil {
		return nil, err
	}
	return h, nil
}

// send routes a message through the transport, tolerating teardown.
func (s *System) send(from, to string, msg any) error {
	if s.stopped.Load() {
		return errors.New("runtime: system stopped")
	}
	return s.transport.Send(from, to, msg)
}

// noteError records a protocol anomaly for post-run inspection.
func (s *System) noteError(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if len(s.errLog) < 100 {
		s.errLog = append(s.errLog, err)
	}
}

// Errors returns the protocol anomalies observed so far.
func (s *System) Errors() []error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return append([]error(nil), s.errLog...)
}

// CrashServer simulates a server failure: the named server stops reacting
// to all traffic. Agents' reply timeouts keep the platform available.
func (s *System) CrashServer(name string) error {
	s.mu.RLock()
	srv, ok := s.servers[name]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("runtime: no server %q", name)
	}
	srv.crashed.Store(true)
	return nil
}

// SetBackgroundLoad injects a background-load slowdown on the named server:
// its effective compute speed becomes power/factor while predictions keep
// using the rated power — the §5.3 heterogenisation as a live drift source.
// factor 1 removes the load.
func (s *System) SetBackgroundLoad(name string, factor float64) error {
	if factor <= 0 || math.IsNaN(factor) {
		return fmt.Errorf("runtime: background-load factor %g must be positive", factor)
	}
	s.mu.RLock()
	srv, ok := s.servers[name]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("runtime: no server %q", name)
	}
	srv.bgBits.Store(math.Float64bits(factor))
	return nil
}

// WrepSamples collects every agent's timed reply-treatment observations,
// for Table 3 calibration.
func (s *System) WrepSamples() []WrepSample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Concatenate per-agent samples in sorted agent order: the result is
	// a slice, so map iteration order would leak straight into the
	// calibration input ordering.
	names := make([]string, 0, len(s.agents))
	for name := range s.agents {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []WrepSample
	for _, name := range names {
		a := s.agents[name]
		a.sampleMu.Lock()
		out = append(out, a.wrepSamples...)
		a.sampleMu.Unlock()
	}
	return out
}

// ServedCounts returns per-server completed service counts (Ni of Eq. 6).
func (s *System) ServedCounts() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.servers))
	//adeptvet:allow maporder per-key counter copy into an unordered map; no cross-key interaction
	for name, srv := range s.servers {
		out[name] = srv.served.Load()
	}
	return out
}

// ServiceStat aggregates a server's observed service executions since the
// last TakeServiceStats call.
type ServiceStat struct {
	// Seconds is the summed observed execution time (virtual seconds).
	Seconds float64
	// Count is the number of completed executions observed.
	Count int64
}

// TakeServiceStats drains every server's accumulated service-time
// observations: the monitoring signal of the autonomic loop. Each call
// returns only the window since the previous call.
func (s *System) TakeServiceStats() map[string]ServiceStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]ServiceStat, len(s.servers))
	//adeptvet:allow maporder per-key drain into an unordered map; no cross-key interaction
	for name, srv := range s.servers {
		sec, n := srv.takeService()
		out[name] = ServiceStat{Seconds: sec, Count: n}
	}
	return out
}

// --- live reconfiguration ------------------------------------------------

// drainQuiet is how long a server must sit idle (no message processed, no
// pending execution) before its removal drain declares quiescence.
const drainQuiet = 15 * time.Millisecond

// DefaultDrainTimeout bounds the wait for a retiring element to go quiet.
const DefaultDrainTimeout = 2 * time.Second

var errStopped = errors.New("runtime: system stopped")

// lookup fetches a topology entry under the read lock.
func (s *System) lookup(name string) (*member, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.topo[name]
	return m, ok
}

// AddServer deploys a new server under an existing agent: the element is
// registered and running before the parent starts routing to it, so no
// request can observe a half-added child.
func (s *System) AddServer(parentName, name string, power float64) error {
	return s.addElement(parentName, name, power, hierarchy.RoleServer)
}

// AddAgent deploys a new (initially childless) agent under an existing
// agent. Children arrive via later Attach-producing ops (AddServer,
// Reparent).
func (s *System) AddAgent(parentName, name string, power float64) error {
	return s.addElement(parentName, name, power, hierarchy.RoleAgent)
}

func (s *System) addElement(parentName, name string, power float64, role hierarchy.Role) error {
	if s.stopped.Load() {
		return errStopped
	}
	if power <= 0 || math.IsNaN(power) {
		return fmt.Errorf("runtime: power %g must be positive", power)
	}
	s.mu.Lock()
	parent, ok := s.topo[parentName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("runtime: no element %q", parentName)
	}
	if parent.role != hierarchy.RoleAgent {
		s.mu.Unlock()
		return fmt.Errorf("runtime: parent %q is a server", parentName)
	}
	if _, dup := s.topo[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("runtime: element %q already deployed", name)
	}
	inbox, err := s.transport.Register(name)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	var run func(<-chan Envelope)
	if role == hierarchy.RoleServer {
		srv := newServerElem(s, name, power)
		s.servers[name] = srv
		run = srv.run
	} else {
		a := newAgentElem(s, name, power)
		s.agents[name] = a
		run = a.run
	}
	s.topo[name] = &member{role: role, power: power, parent: parentName}
	parent.children = append(parent.children, name)
	s.wg.Add(1)
	go run(inbox)
	s.mu.Unlock()
	return s.send("system", parentName, Attach{Child: name})
}

// RemoveServer undeploys a server with drain/quiesce semantics: the parent
// stops routing to it first, then the removal waits (bounded by
// DefaultDrainTimeout) for in-flight requests to complete before the
// element is deregistered. Clients holding the server in an old candidate
// list see at most one failed request.
func (s *System) RemoveServer(name string) error {
	return s.removeElement(name, hierarchy.RoleServer)
}

// RemoveAgent undeploys a childless non-root agent.
func (s *System) RemoveAgent(name string) error {
	return s.removeElement(name, hierarchy.RoleAgent)
}

func (s *System) removeElement(name string, role hierarchy.Role) error {
	if s.stopped.Load() {
		return errStopped
	}
	s.mu.Lock()
	m, ok := s.topo[name]
	switch {
	case !ok:
		s.mu.Unlock()
		return fmt.Errorf("runtime: no element %q", name)
	case m.role != role:
		s.mu.Unlock()
		return fmt.Errorf("runtime: element %q is a %s", name, m.role)
	case name == s.root:
		s.mu.Unlock()
		return errors.New("runtime: cannot remove the root")
	case len(m.children) != 0:
		s.mu.Unlock()
		return fmt.Errorf("runtime: element %q still has %d children", name, len(m.children))
	}
	parentName := m.parent
	s.detachTopo(name)
	delete(s.topo, name)
	s.mu.Unlock()
	return s.retire(parentName, name)
}

// detachTopo removes name from its parent's child list (caller holds mu).
func (s *System) detachTopo(name string) {
	m := s.topo[name]
	if m == nil || m.parent == "" {
		return
	}
	p := s.topo[m.parent]
	for i, c := range p.children {
		if c == name {
			p.children = append(p.children[:i], p.children[i+1:]...)
			return
		}
	}
}

// retire detaches an element from its parent's routing, drains it, and
// deregisters it from the transport, waiting for the element loop to exit.
func (s *System) retire(parentName, name string) error {
	if err := s.send("system", parentName, Detach{Child: name}); err != nil {
		return err
	}
	s.mu.RLock()
	srv := s.servers[name]
	agent := s.agents[name]
	s.mu.RUnlock()
	var done chan struct{}
	if srv != nil {
		s.drainServer(srv, DefaultDrainTimeout)
		done = srv.done
	} else if agent != nil {
		done = agent.done
	}
	if err := s.transport.Deregister(name); err != nil {
		return err
	}
	if done != nil {
		select {
		case <-done:
		case <-time.After(DefaultDrainTimeout):
			s.noteError(fmt.Errorf("runtime: element %q did not exit after deregistration", name))
		}
	}
	s.mu.Lock()
	delete(s.servers, name)
	delete(s.agents, name)
	s.mu.Unlock()
	return nil
}

// drainServer waits until the server has no pending execution and has been
// idle for drainQuiet, or the timeout fires. Crashed servers are not
// waited on — they will never go quiet in any meaningful sense.
func (s *System) drainServer(srv *serverElem, timeout time.Duration) {
	if srv.crashed.Load() {
		return
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		idle := time.Duration(time.Now().UnixNano() - srv.lastActive.Load())
		if srv.pending.Load() == 0 && idle > drainQuiet {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Reparent moves an element (with its whole subtree, for agents) under a
// new parent agent. The element keeps running throughout; only the routing
// changes.
func (s *System) Reparent(name, newParentName string) error {
	if s.stopped.Load() {
		return errStopped
	}
	s.mu.Lock()
	m, ok := s.topo[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("runtime: no element %q", name)
	}
	if name == s.root {
		s.mu.Unlock()
		return errors.New("runtime: cannot reparent the root")
	}
	np, ok := s.topo[newParentName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("runtime: no element %q", newParentName)
	}
	if np.role != hierarchy.RoleAgent {
		s.mu.Unlock()
		return fmt.Errorf("runtime: new parent %q is a server", newParentName)
	}
	// Reject cycles: the new parent must not live inside name's subtree.
	for cur := newParentName; cur != ""; {
		if cur == name {
			s.mu.Unlock()
			return fmt.Errorf("runtime: reparenting %q under its own subtree", name)
		}
		cur = s.topo[cur].parent
	}
	oldParent := m.parent
	if oldParent == newParentName {
		s.mu.Unlock()
		return nil
	}
	s.detachTopo(name)
	m.parent = newParentName
	np.children = append(np.children, name)
	s.mu.Unlock()
	if err := s.send("system", oldParent, Detach{Child: name}); err != nil {
		return err
	}
	return s.send("system", newParentName, Attach{Child: name})
}

// SetPower updates an element's rated power: the belief the scheduling
// phase predictions and the next replanning run use.
func (s *System) SetPower(name string, power float64) error {
	if s.stopped.Load() {
		return errStopped
	}
	if power <= 0 || math.IsNaN(power) {
		return fmt.Errorf("runtime: power %g must be positive", power)
	}
	s.mu.Lock()
	m, ok := s.topo[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("runtime: no element %q", name)
	}
	m.power = power
	s.mu.Unlock()
	return s.send("system", name, SetPower{Power: power})
}

// PromoteServer converts a running server into an agent (the live analog
// of the heuristic's shift_nodes): the server is drained and retired, and
// an agent element re-registers under the same name and parent.
func (s *System) PromoteServer(name string) error {
	return s.convert(name, hierarchy.RoleServer, hierarchy.RoleAgent)
}

// DemoteAgent converts a running childless agent back into a server.
func (s *System) DemoteAgent(name string) error {
	return s.convert(name, hierarchy.RoleAgent, hierarchy.RoleServer)
}

func (s *System) convert(name string, from, to hierarchy.Role) error {
	if s.stopped.Load() {
		return errStopped
	}
	s.mu.Lock()
	m, ok := s.topo[name]
	switch {
	case !ok:
		s.mu.Unlock()
		return fmt.Errorf("runtime: no element %q", name)
	case m.role != from:
		s.mu.Unlock()
		return fmt.Errorf("runtime: element %q is a %s, not a %s", name, m.role, from)
	case name == s.root:
		s.mu.Unlock()
		return errors.New("runtime: cannot convert the root")
	case len(m.children) != 0:
		s.mu.Unlock()
		return fmt.Errorf("runtime: element %q still has %d children", name, len(m.children))
	}
	parentName, power := m.parent, m.power
	s.mu.Unlock()

	if err := s.retire(parentName, name); err != nil {
		return err
	}
	s.mu.Lock()
	inbox, err := s.transport.Register(name)
	if err != nil {
		// The element is gone and could not come back: drop it from the
		// topology so Snapshot stays consistent.
		s.detachTopo(name)
		delete(s.topo, name)
		s.mu.Unlock()
		return err
	}
	var run func(<-chan Envelope)
	if to == hierarchy.RoleAgent {
		a := newAgentElem(s, name, power)
		s.agents[name] = a
		run = a.run
	} else {
		srv := newServerElem(s, name, power)
		s.servers[name] = srv
		run = srv.run
	}
	m.role = to
	s.wg.Add(1)
	go run(inbox)
	s.mu.Unlock()
	return s.send("system", parentName, Attach{Child: name})
}

// ApplyOp applies one reconfiguration patch operation to the live system.
//
// Link-bandwidth limitation: the live runtime models a single shared wire
// (Options.Bandwidth) — the paper's homogeneous-links testbed — so
// op.Bandwidth is bookkeeping only here: elements added by a patch send
// and receive at the uniform wire speed, and Snapshot() reports bandwidth
// zero for every element. Per-node link speeds are modelled by the
// discrete-event simulator (internal/sim), whose patch target honours
// op.Bandwidth; plan deployments for heterogeneous links there.
func (s *System) ApplyOp(op hierarchy.Op) error {
	switch op.Kind {
	case hierarchy.OpAdd:
		if op.Role == hierarchy.RoleAgent {
			return s.AddAgent(op.Parent, op.Name, op.Power)
		}
		return s.AddServer(op.Parent, op.Name, op.Power)
	case hierarchy.OpRemove:
		m, ok := s.lookup(op.Name)
		if !ok {
			return fmt.Errorf("runtime: no element %q", op.Name)
		}
		if m.role == hierarchy.RoleAgent {
			return s.RemoveAgent(op.Name)
		}
		return s.RemoveServer(op.Name)
	case hierarchy.OpReparent:
		return s.Reparent(op.Name, op.Parent)
	case hierarchy.OpSetPower:
		return s.SetPower(op.Name, op.Power)
	case hierarchy.OpPromote:
		return s.PromoteServer(op.Name)
	case hierarchy.OpDemote:
		return s.DemoteAgent(op.Name)
	}
	return fmt.Errorf("runtime: unknown op kind %v", op.Kind)
}

// ApplyPatch applies a reconfiguration patch op by op, stopping at the
// first failure. The returned count says how many ops were applied.
func (s *System) ApplyPatch(p hierarchy.Patch) (int, error) {
	for i, op := range p.Ops {
		if err := s.ApplyOp(op); err != nil {
			return i, fmt.Errorf("runtime: patch op %d (%s): %w", i, op, err)
		}
	}
	return len(p.Ops), nil
}

// Stop shuts every element down and closes the transport.
func (s *System) Stop() {
	if !s.started || !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.agents)+len(s.servers))
	for name := range s.agents {
		names = append(names, name)
	}
	for name := range s.servers {
		names = append(names, name)
	}
	s.mu.RUnlock()
	// Deterministic shutdown order, so teardown traces and any
	// shutdown-races the soak harness shakes out replay identically.
	sort.Strings(names)
	for _, name := range names {
		_ = s.transport.Send("system", name, Shutdown{})
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		// Elements blocked on a dead peer: closing the transport below
		// unblocks them by closing their inboxes.
	}
	s.transport.Close()
	s.wg.Wait()
}

// LoadStats summarises a client-driven measurement.
type LoadStats struct {
	// Completed counts fully completed requests across all clients.
	Completed int64
	// Failed counts requests whose service phase reported failure (or
	// whose selected server disappeared under them mid-reconfiguration).
	Failed int64
	// Timeouts counts requests abandoned by clients.
	Timeouts int64
	// Elapsed is the real measurement duration.
	Elapsed time.Duration
	// Throughput is completed requests per *virtual* second when a
	// TimeScale is set, per real second otherwise.
	Throughput float64
}

// RunClients drives the platform with n closed-loop clients until the
// duration elapses or the context is cancelled, and reports completion
// statistics (the §5.1 measurement). Cancellation is a normal early end of
// the measurement window: the stats cover the elapsed part and the error
// is nil. It may be called repeatedly on the same system — each call
// registers a fresh client cohort — which is how the autonomic monitor
// samples successive measurement windows.
func (s *System) RunClients(ctx context.Context, n int, duration time.Duration) (LoadStats, error) {
	if n <= 0 {
		return LoadStats{}, errors.New("runtime: need at least one client")
	}
	var completed, failed, timeouts atomic.Int64
	start := time.Now()
	deadline := start.Add(duration)
	epoch := s.clientEpoch.Add(1)
	var wg sync.WaitGroup

	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("client-%d-%d", epoch, i)
		inbox, err := s.transport.Register(name)
		if err != nil {
			return LoadStats{}, err
		}
		names = append(names, name)
		wg.Add(1)
		go func(idx int, name string, inbox <-chan Envelope) {
			defer wg.Done()
			s.clientLoop(ctx, uint64(epoch)<<16|uint64(idx), name, inbox, deadline, &completed, &failed, &timeouts)
		}(i, name, inbox)
	}
	wg.Wait()
	for _, name := range names {
		_ = s.transport.Deregister(name)
	}
	elapsed := time.Since(start)
	stats := LoadStats{
		Completed: completed.Load(),
		Failed:    failed.Load(),
		Timeouts:  timeouts.Load(),
		Elapsed:   elapsed,
	}
	virtualSeconds := elapsed.Seconds()
	if s.opts.TimeScale > 0 {
		virtualSeconds = elapsed.Seconds() / s.opts.TimeScale
	}
	if virtualSeconds > 0 {
		stats.Throughput = float64(stats.Completed) / virtualSeconds
	}
	return stats, nil
}

// clientLoop is one closed-loop client: scheduling request, selection,
// service request, repeat until the deadline or cancellation. Send
// failures are counted, not fatal: during a live reconfiguration a
// selected server may retire between selection and submission.
func (s *System) clientLoop(ctx context.Context, idx uint64, name string, inbox <-chan Envelope, deadline time.Time, completed, failed, timeouts *atomic.Int64) {
	seq := uint64(0)
	perRequest := s.opts.replyTimeout() + time.Second
	for time.Now().Before(deadline) && ctx.Err() == nil {
		seq++
		id := idx<<32 | seq
		if s.send(name, s.root, SchedRequest{ID: id, ReplyTo: name}) != nil {
			if s.stopped.Load() {
				return
			}
			failed.Add(1)
			time.Sleep(time.Millisecond)
			continue
		}
		reply, ok := awaitReply[SchedReply](ctx, inbox, id, perRequest)
		if !ok {
			timeouts.Add(1)
			continue
		}
		if len(reply.Candidates) == 0 {
			failed.Add(1)
			continue
		}
		best := reply.Candidates[0]
		if s.send(name, best.Server, ServiceRequest{ID: id, ReplyTo: name, N: s.opts.DgemmN}) != nil {
			if s.stopped.Load() {
				return
			}
			failed.Add(1)
			continue
		}
		svc, ok := awaitReply[ServiceReply](ctx, inbox, id, perRequest)
		if !ok {
			timeouts.Add(1)
			continue
		}
		if !svc.OK {
			failed.Add(1)
			continue
		}
		completed.Add(1)
	}
}

// awaitReply reads the inbox until a message of type T with the wanted ID
// arrives, the inbox closes, the context fires, or the timeout fires.
// Stale replies from abandoned earlier requests are discarded.
func awaitReply[T interface{ requestID() uint64 }](ctx context.Context, inbox <-chan Envelope, id uint64, timeout time.Duration) (T, bool) {
	var zero T
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case env, ok := <-inbox:
			if !ok {
				return zero, false
			}
			if msg, ok := env.Msg.(T); ok && msg.requestID() == id {
				return msg, true
			}
		case <-ctx.Done():
			return zero, false
		case <-timer.C:
			return zero, false
		}
	}
}

// requestID implementations let awaitReply match replies generically.
func (r SchedReply) requestID() uint64   { return r.ID }
func (r ServiceReply) requestID() uint64 { return r.ID }
