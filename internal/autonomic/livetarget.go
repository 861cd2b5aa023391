package autonomic

import (
	"context"
	"fmt"
	"sync"
	"time"

	"adept/internal/hierarchy"
	"adept/internal/runtime"
)

// LiveTarget adapts a deployed runtime.System to the control loop: each
// Observe drives a cohort of closed-loop clients for a real-time window
// and drains the per-server service-time accumulators; Apply hands the
// patch to the system op by op.
type LiveTarget struct {
	// Clients is the closed-loop client count per measurement window.
	Clients int
	// Window is the real-time measurement window.
	Window time.Duration
	// Opts are the runtime options the system was deployed with (used to
	// convert to virtual seconds and to redeploy).
	Opts runtime.Options
	// NewTransport builds a fresh transport for the full-redeploy
	// fallback; nil disables redeploy.
	NewTransport func() runtime.Transport

	mu  sync.Mutex
	sys *runtime.System
}

// NewLiveTarget wraps a deployed system.
func NewLiveTarget(sys *runtime.System, opts runtime.Options, clients int, window time.Duration, newTransport func() runtime.Transport) *LiveTarget {
	return &LiveTarget{
		Clients:      clients,
		Window:       window,
		Opts:         opts,
		NewTransport: newTransport,
		sys:          sys,
	}
}

// System returns the currently managed system (it changes after a full
// redeploy).
func (t *LiveTarget) System() *runtime.System {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sys
}

// Observe implements Target: one client-driven measurement window. Served
// and ServiceSeconds come from one drain of the servers' accumulators,
// which count each completed execution once.
func (t *LiveTarget) Observe(ctx context.Context) (Observation, error) {
	sys := t.System()
	stats, err := sys.RunClients(ctx, t.Clients, t.Window)
	if err != nil {
		return Observation{}, err
	}
	window := stats.Elapsed.Seconds()
	if t.Opts.TimeScale > 0 {
		window /= t.Opts.TimeScale
	}
	drain := sys.TakeServiceStats()
	obs := Observation{
		Window:         window,
		Throughput:     stats.Throughput,
		Completed:      stats.Completed,
		Served:         make(map[string]int64, len(drain)),
		ServiceSeconds: make(map[string]float64, len(drain)),
	}
	for name, st := range drain {
		obs.Served[name] = st.Count
		if st.Count > 0 {
			obs.ServiceSeconds[name] = st.Seconds / float64(st.Count)
		}
	}
	return obs, nil
}

// Apply implements Target via the runtime's live patch primitives.
func (t *LiveTarget) Apply(ctx context.Context, p hierarchy.Patch) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return hierarchy.ApplyEach(t.System(), p)
}

// CanRedeploy implements Target: possible whenever a transport factory
// was provided.
func (t *LiveTarget) CanRedeploy() bool { return t.NewTransport != nil }

// Redeploy implements Target: stop the old system, deploy h on a fresh
// transport, and swap.
func (t *LiveTarget) Redeploy(ctx context.Context, h *hierarchy.Hierarchy) error {
	if t.NewTransport == nil {
		return fmt.Errorf("autonomic: live target has no transport factory; redeploy disabled")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	next, err := runtime.Deploy(h, t.NewTransport(), t.Opts)
	if err != nil {
		return err
	}
	t.mu.Lock()
	old := t.sys
	t.sys = next
	t.mu.Unlock()
	old.Stop()
	return nil
}
