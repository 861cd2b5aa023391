package sim

import (
	"fmt"

	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/stats"
)

// Config parameterises a steady-state measurement.
type Config struct {
	// Clients is the number of closed-loop clients.
	Clients int
	// Warmup is the simulated seconds discarded before measuring.
	Warmup float64
	// Window is the simulated measurement window in seconds.
	Window float64
}

// Validate checks the measurement configuration.
func (c Config) Validate() error {
	if c.Clients <= 0 {
		return fmt.Errorf("sim: need at least one client, got %d", c.Clients)
	}
	if c.Warmup < 0 || c.Window <= 0 {
		return fmt.Errorf("sim: invalid warmup %g / window %g", c.Warmup, c.Window)
	}
	return nil
}

// Result is one steady-state measurement.
type Result struct {
	// Throughput is completed requests per simulated second in the window.
	Throughput float64
	// Completed is the total number of completed requests in the window.
	Completed int64
	// Clients echoes the offered load level.
	Clients int
	// Events is the number of simulator events executed.
	Events int64
	// Utilization is the per-node busy fraction over the whole run.
	Utilization map[string]float64
	// PerServer is the per-server completion count over the whole run;
	// Eq. 6's Σ Ni = N conservation is checked against it in tests.
	PerServer map[string]int64
	// Latency summarises sampled request latencies over the whole run
	// (zero when nothing completed).
	Latency LatencySummary
}

// LatencySummary holds request-latency statistics in simulated seconds.
type LatencySummary struct {
	Mean float64
	P50  float64
	P95  float64
	P99  float64
	N    int
}

func summarizeLatency(samples []float64) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Mean: stats.Mean(samples),
		P50:  stats.Percentile(samples, 50),
		P95:  stats.Percentile(samples, 95),
		P99:  stats.Percentile(samples, 99),
		N:    len(samples),
	}
}

// Measure instantiates the hierarchy, applies the closed-loop client load,
// and returns the steady-state throughput over the measurement window.
func Measure(h *hierarchy.Hierarchy, costs model.Costs, bandwidth, wapp float64, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	eng := NewEngine()
	dep, err := Instantiate(eng, h, costs, bandwidth, wapp)
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < cfg.Clients; i++ {
		dep.StartClient(0)
	}
	eng.Run(cfg.Warmup)
	start := dep.Completed
	eng.Run(cfg.Warmup + cfg.Window)
	done := dep.Completed - start
	return Result{
		Throughput:  float64(done) / cfg.Window,
		Completed:   done,
		Clients:     cfg.Clients,
		Events:      eng.Events(),
		Utilization: dep.Utilization(),
		PerServer:   dep.PerServer,
		Latency:     summarizeLatency(dep.latencies),
	}, nil
}

// Point is one (clients, throughput) sample of a load curve.
type Point struct {
	Clients    int
	Throughput float64
}

// LoadSeries measures steady-state throughput at each client level with an
// independent simulation per level, producing the load curves of Figs. 2,
// 4, 6 and 7.
func LoadSeries(h *hierarchy.Hierarchy, costs model.Costs, bandwidth, wapp float64, levels []int, warmup, window float64) ([]Point, error) {
	out := make([]Point, 0, len(levels))
	for _, k := range levels {
		res, err := Measure(h, costs, bandwidth, wapp, Config{Clients: k, Warmup: warmup, Window: window})
		if err != nil {
			return nil, fmt.Errorf("sim: load level %d: %w", k, err)
		}
		out = append(out, Point{Clients: k, Throughput: res.Throughput})
	}
	return out, nil
}

// Plateau searches for the saturated (maximum sustained) throughput by
// doubling the client count until throughput stops improving by more than
// tol (relative), then returns the best observed level. This condenses the
// paper's "introduce clients until the throughput of the platform stops
// improving" protocol.
func Plateau(h *hierarchy.Hierarchy, costs model.Costs, bandwidth, wapp float64, warmup, window float64, maxClients int, tol float64) (Result, error) {
	if maxClients < 1 {
		return Result{}, fmt.Errorf("sim: maxClients must be positive")
	}
	if tol <= 0 {
		tol = 0.01
	}
	best := Result{}
	prev := -1.0
	for k := 1; k <= maxClients; k *= 2 {
		res, err := Measure(h, costs, bandwidth, wapp, Config{Clients: k, Warmup: warmup, Window: window})
		if err != nil {
			return Result{}, err
		}
		if res.Throughput > best.Throughput {
			best = res
		}
		if prev > 0 && res.Throughput < prev*(1+tol) {
			break
		}
		prev = res.Throughput
	}
	return best, nil
}
