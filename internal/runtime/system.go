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
	"adept/internal/nes"
)

// System is a deployed middleware instance: the live realisation of one
// planned hierarchy. ApplyOp reconfigures it live with drain/quiesce
// semantics: in-flight requests complete, clients ride through patches
// with at most per-request failures.
type System struct {
	opts      Options
	transport Transport
	root      string

	// opMu serialises reconfiguration, so each op is judged against the
	// tree the previous one installed. It is held for a whole op, drains
	// included; only ApplyOp takes it.
	opMu sync.Mutex

	mu      sync.RWMutex
	agents  map[string]*agentElem
	servers map[string]*serverElem
	// tree is the deployed hierarchy. ApplyOp replaces it and never edits
	// it in place.
	tree *hierarchy.Hierarchy

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
		agents:    make(map[string]*agentElem),
		servers:   make(map[string]*serverElem),
		tree:      h.Clone(),
	}

	var starts []func()
	var build func(id int) error
	build = func(id int) error {
		n := h.MustNode(id)
		inbox, err := transport.Register(n.Name)
		if err != nil {
			return err
		}
		var children []string
		for _, c := range n.Children {
			if err := build(c); err != nil {
				return err
			}
			children = append(children, h.MustNode(c).Name)
		}
		run := sys.element(n.Name, n.Power, n.Link(opts.Bandwidth), n.Role, children)
		starts = append(starts, func() { run(inbox) })
		return nil
	}
	if err := build(h.Root()); err != nil {
		transport.Close()
		return nil, err
	}
	sys.root = h.MustNode(h.Root()).Name
	for _, start := range starts {
		sys.wg.Add(1)
		go start()
	}
	sys.started = true
	return sys, nil
}

// element creates the element of a node (an agent with its children) at
// its own link, records it, and returns its loop for the caller to start.
// The caller holds mu or has s to itself.
func (s *System) element(name string, power, link float64, role hierarchy.Role, children []string) func(<-chan Envelope) {
	p := newPort(s.opts.TimeScale)
	if role == hierarchy.RoleServer {
		srv := &serverElem{sys: s, name: name, port: p, power: power, link: link, rated: power, bg: 1}
		s.servers[name] = srv
		return func(inbox <-chan Envelope) { defer s.wg.Done(); p.run(inbox, srv.handle) }
	}
	a := &agentElem{
		Agent:   nes.Agent[string, Candidate]{Name: name, Port: p, Costs: &s.opts.Costs, Power: power, Link: link, Children: children},
		sys:     s,
		port:    p,
		pending: make(map[uint64]*nes.Gather[string, Candidate]),
	}
	s.agents[name] = a
	return func(inbox <-chan Envelope) { defer s.wg.Done(); p.run(inbox, a.handle) }
}

// Snapshot returns a copy of the deployed hierarchy, which the autonomic
// loop diffs against a freshly replanned tree. Powers are the *rated*
// powers, including every set-power applied so far; links are what the
// ops recorded (see ApplyOp).
func (s *System) Snapshot() *hierarchy.Hierarchy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.Clone()
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
	srv.port.post(func() { srv.bg = factor })
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
	for name, srv := range s.servers {
		out[name] = srv.takeService()
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

// ApplyOp carries out one reconfiguration op on the live system.
// hierarchy.Step judges the op against the deployed tree; a refused op
// touches nothing. An accepted op runs its mechanics, then the new tree is
// installed:
//
//   - add registers and starts the element before its parent routes to
//     it, so no request can observe a half-added child;
//   - remove detaches the element from its parent's routing, drains it
//     (bounded by DefaultDrainTimeout) and deregisters it; a client holding
//     it in an old candidate list sees at most one failed request;
//   - reparent changes only the routing; the element, and an agent's whole
//     subtree, keeps running;
//   - set-power refreshes the rated power that predictions and the next
//     replan use, and the node's link;
//   - promote and demote drain and retire the element, and re-register it
//     in its new role under the same name and parent (the live analog of
//     the heuristic's shift_nodes).
//
// An element added or re-registered sends and receives at the link the op
// gives it, zero meaning Options.Bandwidth, as at Deploy. When a mechanic
// fails halfway the tree records what runs: a promote or demote whose
// re-register fails leaves the node out of it.
func (s *System) ApplyOp(op hierarchy.Op) error {
	if s.stopped.Load() {
		return errStopped
	}
	s.opMu.Lock()
	defer s.opMu.Unlock()
	cur := s.tree
	next, err := hierarchy.Step(cur, op)
	if err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	var parent string
	if n, ok := cur.Lookup(op.Name); ok && n.Parent >= 0 {
		parent = cur.MustNode(n.Parent).Name
	}
	switch op.Kind {
	case hierarchy.OpAdd:
		inbox, rerr := s.transport.Register(op.Name)
		if rerr != nil {
			return rerr
		}
		n, _ := next.Lookup(op.Name)
		s.start(n, inbox)
		err = s.routing(op.Parent, func(a *agentElem) { a.attach(op.Name) })
	case hierarchy.OpRemove:
		err = s.retire(parent, op.Name)
	case hierarchy.OpReparent:
		if parent != op.Parent {
			if err = s.routing(parent, func(a *agentElem) { a.detach(op.Name) }); err == nil {
				err = s.routing(op.Parent, func(a *agentElem) { a.attach(op.Name) })
			}
		}
	case hierarchy.OpSetPower:
		n, _ := next.Lookup(op.Name)
		link := n.Link(s.opts.Bandwidth)
		s.mu.RLock()
		srv, agent := s.servers[op.Name], s.agents[op.Name]
		s.mu.RUnlock()
		switch {
		case srv != nil:
			srv.port.post(func() { srv.rated, srv.link = n.Power, link })
		case agent != nil:
			agent.port.post(func() { agent.Link = link })
		}
	case hierarchy.OpPromote, hierarchy.OpDemote:
		next, err = s.convert(cur, next, op.Name, parent)
	}
	s.mu.Lock()
	s.tree = next
	s.mu.Unlock()
	return err
}

// start runs a new element for a node on its registered inbox.
func (s *System) start(n hierarchy.Node, inbox <-chan Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run := s.element(n.Name, n.Power, n.Link(s.opts.Bandwidth), n.Role, nil)
	s.wg.Add(1)
	go run(inbox)
}

// routing edits an agent's children on the agent's own goroutine.
func (s *System) routing(name string, edit func(*agentElem)) error {
	s.mu.RLock()
	a := s.agents[name]
	s.mu.RUnlock()
	if a == nil {
		return fmt.Errorf("runtime: no agent %q", name)
	}
	a.port.post(func() { edit(a) })
	return nil
}

// convert retires a childless element and re-registers it under the same
// name and parent, in the role next gives it. It returns the tree that
// then runs: cur if the retirement failed, cur without the node if the
// re-register did.
func (s *System) convert(cur, next *hierarchy.Hierarchy, name, parent string) (*hierarchy.Hierarchy, error) {
	if err := s.retire(parent, name); err != nil {
		return cur, err
	}
	inbox, err := s.transport.Register(name)
	if err != nil {
		// Cannot be refused: Step accepted the convert, so the node is
		// childless and not the root.
		gone, _ := hierarchy.Step(cur, hierarchy.Op{Kind: hierarchy.OpRemove, Name: name})
		return gone, err
	}
	n, _ := next.Lookup(name)
	s.start(n, inbox)
	return next, s.routing(parent, func(a *agentElem) { a.attach(name) })
}

// retire detaches an element from its parent's routing, drains it, and
// deregisters it from the transport, waiting for the element loop to exit.
func (s *System) retire(parentName, name string) error {
	if err := s.routing(parentName, func(a *agentElem) { a.detach(name) }); err != nil {
		return err
	}
	s.mu.RLock()
	srv := s.servers[name]
	agent := s.agents[name]
	s.mu.RUnlock()
	var done chan struct{}
	if srv != nil {
		s.drainServer(srv, DefaultDrainTimeout)
		done = srv.port.done
	} else if agent != nil {
		done = agent.port.done
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

// drainServer waits until the server's port has nothing queued and has
// been idle for drainQuiet, or the timeout fires. Crashed servers are not
// waited on — they will never go quiet in any meaningful sense.
func (s *System) drainServer(srv *serverElem, timeout time.Duration) {
	if srv.crashed.Load() {
		return
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		idle := time.Duration(time.Now().UnixNano() - srv.port.last.Load())
		if srv.port.queued.Load() == 0 && idle > drainQuiet {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stop shuts every element down: closing the transport closes each
// element's inbox, which ends its loop.
func (s *System) Stop() {
	if !s.started || !s.stopped.CompareAndSwap(false, true) {
		return
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
		best := nes.Pick(reply.Candidates)
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
