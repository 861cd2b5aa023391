package autonomic

import (
	"maps"
	"slices"
)

// Monitor is the M of MAPE-K: it folds per-window service-time
// observations into one exponentially-weighted moving average per server
// and derives each node's *effective* computing power — the learned Wapp/t
// that replaces the nominal benchmark power once drift sets in. This is
// the knowledge base the Analyze and Plan stages read.
type Monitor struct {
	alpha float64
	wapp  float64
	est   map[string]float64 // server -> smoothed service seconds
}

// NewMonitor returns an empty monitor. alpha is the EWMA smoothing factor
// in (0, 1]; wapp is the service cost in MFlop used to invert observed
// seconds into MFlop/s.
func NewMonitor(alpha, wapp float64) *Monitor {
	return &Monitor{alpha: alpha, wapp: wapp, est: make(map[string]float64)}
}

// Update folds one observation window into the estimators, in server name
// order.
func (m *Monitor) Update(obs Observation) {
	for _, name := range slices.Sorted(maps.Keys(obs.ServiceSeconds)) {
		sec := obs.ServiceSeconds[name]
		if !(sec > 0) { // zero, negative or NaN: not a service time
			continue
		}
		if prev, ok := m.est[name]; ok {
			sec = m.alpha*sec + (1-m.alpha)*prev
		}
		m.est[name] = sec
	}
}

// EffectivePower returns the learned effective power of a server in
// MFlop/s, and false while no observation has been folded in yet.
func (m *Monitor) EffectivePower(name string) (float64, bool) {
	sec, ok := m.est[name]
	if !ok {
		return 0, false
	}
	return m.wapp / sec, true
}

// EffectivePowers returns every learned effective power, for status
// reporting.
func (m *Monitor) EffectivePowers() map[string]float64 {
	out := make(map[string]float64, len(m.est))
	for name, sec := range m.est {
		out[name] = m.wapp / sec
	}
	return out
}

// Forget drops a server's estimator (the server left the deployment).
func (m *Monitor) Forget(name string) {
	delete(m.est, name)
}
