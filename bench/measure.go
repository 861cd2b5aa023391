package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"adept/internal/service"
)

// metricSpec names one metric; BENCHMARK.json lists the same names, units
// and directions (metrics_test.go keeps the two in step).
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a client of the daemon sees, measured over the
// untraced window; the times among them are host time (ref.go). fail_share is not among them: the result line's
// attempted/failed/correct carry it, and a metric that reads 0 on every
// good run cannot have a relative bound (it is reported per layer).
var endToEnd = []metricSpec{
	{"ops_per_s", "ops/s", "higher"},
	{"plan_p50_ms", "ms", "lower"},
	{"plan_p95_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mib", "MiB", "lower"},
	{"rho_geomean", "req/s", "higher"},
	{"setup_s", "s", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one invocation's settings.
type config struct {
	outDir, daemonBin string
	seed              int64
	seconds           float64
	traced            bool
}

const (
	// moduleRoot is the adept module (cmd/adeptd, BENCHMARK.json) as seen
	// from this directory, where run.sh starts the program.
	moduleRoot = ".."
	// setups is how many times a run sets up; setup_s is their median.
	setups = 3
	// warmupSeconds of the stream are sent and discarded before the window.
	warmupSeconds = 2.0
	// windowSlices is how many equal slices the window is cut into;
	// ops_per_s and cpu_ms_per_op are medians over them.
	windowSlices = 6
	// minPlanSamples guards plan_p95_ms: at least this many plan latencies,
	// so that at least five lie beyond the 95th percentile.
	minPlanSamples = 100
	// maxLoadgenRatio guards the measurement itself: over the window the
	// load generator may use at most this much CPU per unit the daemon
	// uses. A ratio, not a share of a core: steal and a slow host inflate
	// both sides alike, so a noisy machine does not break the rail.
	maxLoadgenRatio = 0.5
	// maxStarvedShare: at most this share of the window's ops may have
	// waited for the stream's producer.
	maxStarvedShare = 0.01
)

// result is everything one run of one workload produced.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"window_seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// PlanSamples is the sample count behind plan_p50_ms and plan_p95_ms.
	PlanSamples int `json:"plan_samples"`
	// SetupSeconds are the individual set-ups setup_s is the median of, and
	// SliceOpsPerS the window's slices ops_per_s is the median of.
	SetupSeconds []float64 `json:"setup_seconds"`
	SliceOpsPerS []float64 `json:"slice_ops_per_s"`
	Failures     []string  `json:"failures,omitempty"`
	Guards       []string  `json:"guard_rails_broken,omitempty"`
	Warnings     []string  `json:"warnings,omitempty"`

	inputs inputs
	spans  []span
}

func (r *result) e2e(name string, v float64) { record(r.EndToEnd, endToEnd, name, v) }

func (r *result) layer(name string, v float64) { record(r.PerLayer, perLayer, name, v) }

// record stores a metric under the unit its table lists; a name the table
// (and so BENCHMARK.json) does not list is a bug here, not an input.
func record(into map[string]metricValue, table []metricSpec, name string, v float64) {
	for _, m := range table {
		if m.Name == name {
			into[name] = metricValue{v, m.Unit}
			return
		}
	}
	panic("bench: unlisted metric " + name)
}

// runWorkload measures one workload against fresh daemons: the set-ups
// (the last one's daemon is kept), warm-up, the untraced window, the
// verify pass and, if cfg.traced, the traced pass.
func runWorkload(ctx context.Context, cfg config, name string) (*result, error) {
	st, err := newStream(name, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer st.startFeed(ctx)()
	res := &result{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}, inputs: st.describe()}
	rhoOps := st.rhoOps()
	verifyOps := rhoOps[:min(len(rhoOps), st.verifyOps)]
	clock := newHostClock()

	// Set-up, several times over: exec → first 200 on /readyz → registry
	// PUTs and priming requests answered, a slot of the host clock before,
	// between the requests and after. The median is setup_s.
	var d *daemon
	var run *runner
	var client *httpTarget
	var setupWall []float64
	for k := 0; k < setups; k++ {
		if d != nil {
			d.stop()
			client.close()
		}
		clock.tick()
		from := sinceEpoch()
		if d, err = startDaemon(cfg.daemonBin, cfg.outPath("adeptd-"+name+".log")); err != nil {
			return nil, err
		}
		defer d.stop()
		run = newRunner(st, clock, verifyOps)
		client = newHTTPTarget(d.base)
		defer client.close()
		if err := run.setup(client); err != nil {
			return nil, err
		}
		to := sinceEpoch()
		clock.tick()
		host, _ := clock.span(from, to)
		res.SetupSeconds = append(res.SetupSeconds, host)
		setupWall = append(setupWall, to-from)
	}
	res.e2e("setup_s", median(res.SetupSeconds))

	run.runPhase(ctx, client, seconds(warmupSeconds))

	c0, err := readCounters(d)
	if err != nil {
		return nil, err
	}
	att0, fail0, starved0 := run.attempted, run.failed, run.starved

	// The window. A sampler reads the daemon's CPU time at every slice
	// boundary so cpu_ms_per_op can be a median over slices too.
	slice := cfg.seconds / windowSlices
	cpuAt := make([]float64, windowSlices+1)
	if cpuAt[0], err = readProcCPU(d.pid); err != nil {
		return nil, err
	}
	samplerDone := make(chan struct{})
	winStart := time.Now()
	go func() {
		defer close(samplerDone)
		for k := 1; k <= windowSlices; k++ {
			select {
			case <-time.After(time.Until(winStart.Add(seconds(float64(k) * slice)))):
			case <-ctx.Done():
				return
			}
			cpuAt[k], _ = readProcCPU(d.pid) // a vanished daemon is reported by alive() below
		}
	}()
	win := run.runPhase(ctx, client, seconds(cfg.seconds))
	<-samplerDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := d.alive(); err != nil {
		return nil, err
	}

	c1, err := readCounters(d)
	if err != nil {
		return nil, err
	}
	rss, err := readVmHWM(d.pid)
	if err != nil {
		return nil, err
	}
	winAttempted, winFailed := run.attempted-att0, run.failed-fail0

	// End-to-end metrics, on the host clock; the same on the wall clock
	// for the per-layer table.
	var planMS, putMS, planWallMS []float64
	for _, s := range win.samples {
		switch {
		case !s.ok:
		case s.kind == opPlan:
			planMS = append(planMS, s.hostMS(clock))
			planWallMS = append(planWallMS, s.ms())
		default:
			putMS = append(putMS, s.hostMS(clock))
		}
	}
	sl := sliceWindow(clock, winStart.Sub(epoch).Seconds(), slice, win.samples, cpuAt)
	res.SliceOpsPerS = sl.hostRate
	res.PlanSamples = len(planMS)
	res.e2e("ops_per_s", median(res.SliceOpsPerS))
	res.e2e("plan_p50_ms", median(planMS))
	res.e2e("plan_p95_ms", percentile(planMS, 0.95))
	res.e2e("cpu_ms_per_op", median(sl.hostCPUMS))
	res.e2e("rss_peak_mib", rss)

	var rhos []float64
	for _, o := range rhoOps {
		if ref, ok := run.refs[o.id]; ok {
			rhos = append(rhos, ref.rho)
		}
	}
	res.e2e("rho_geomean", geomean(rhos))
	if len(rhos) < len(rhoOps) {
		res.Guards = append(res.Guards, fmt.Sprintf("only %d of the first %d distinct plan requests were answered: rho_geomean is not over its fixed sample", len(rhos), len(rhoOps)))
	}

	// Verify pass: the first distinct requests, in depth.
	for _, o := range verifyOps {
		resp, ok := run.full[o.id]
		if !ok {
			continue // counted by the rho guard above
		}
		run.attempted++
		if msg := verifyAnswer(ctx, o, resp); msg != "" {
			run.failed++
			res.Failures = append(res.Failures, "verify "+o.id+": "+msg)
		}
	}

	// Window counters and guard rails.
	m0, m1 := c0.report, c1.report
	hits, misses := float64(m1.CacheHits-m0.CacheHits), float64(m1.CacheMisses-m0.CacheMisses)
	hitRatio := div(hits, hits+misses)
	plans := float64(len(planMS))
	winHost, winWall := clock.span(win.start, win.end)
	slotSeconds := (win.end - win.start) - winWall
	// The slots are the clock's work, not the generator's.
	loadgenCPU, daemonCPU := c1.selfCPU-c0.selfCPU-slotSeconds, cpuAt[windowSlices]-cpuAt[0]
	guard := func(broken bool, format string, args ...any) {
		if broken {
			res.Guards = append(res.Guards, fmt.Sprintf(format, args...))
		}
	}
	switch name {
	case fleetCold:
		guard(hits != 0, "fleet_cold saw %g cache hits: it no longer measures the cold path", hits)
	case fleetHit:
		guard(hitRatio < 0.99, "fleet_hit cache hit ratio %.3f < 0.99: it no longer measures the hit path", hitRatio)
	case replanChurn:
		guard(math.Abs(hitRatio-st.designedHit) > 0.02, "replan_churn cache hit ratio %.3f is not 0.75 ± 0.02", hitRatio)
	case mixSmall:
		guard(math.Abs(hitRatio-st.designedHit) > 0.05, "mix_small cache hit ratio %.3f is not %.2f ± 0.05", hitRatio, st.designedHit)
	}
	guard(m1.Rejected != m0.Rejected, "the daemon shed %d requests (429): closed-loop load must never overflow the queue", m1.Rejected-m0.Rejected)
	guard(loadgenCPU > maxLoadgenRatio*daemonCPU, "load generator used %.2f s of CPU, the daemon %.2f s (ratio > %.2f): the run measured the generator", loadgenCPU, daemonCPU, maxLoadgenRatio)
	guard(float64(run.starved-starved0) > maxStarvedShare*float64(winAttempted), "%d of %d ops waited for the stream's producer: the run measured the generator", run.starved-starved0, winAttempted)
	guard(len(planMS) < minPlanSamples, "%d plan samples < %d: plan_p95_ms has too few samples beyond it", len(planMS), minPlanSamples)

	if cfg.traced {
		res.layer("adeptd.fail_share", div(float64(winFailed), float64(winAttempted)))
		res.layer("adeptd.cache_hit_ratio", hitRatio)
		res.layer("adeptd.coalesced_share", div(float64(m1.Coalesced-m0.Coalesced), plans))
		res.layer("adeptd.plans_executed_per_op", div(float64(m1.PlansExecuted-m0.PlansExecuted), plans))
		res.layer("adeptd.rejected", float64(m1.Rejected-m0.Rejected))
		res.layer("adeptd.put_p50_ms", median(putMS))
		res.layer("host.steal_share", div(c1.hostSteal-c0.hostSteal, c1.hostTotal-c0.hostTotal))
		res.layer("host.loadgen_cpu_share", loadgenCPU/cfg.seconds)
		res.layer("host.ref_ms", median(clock.slotMS(win.start, win.end)))
		res.layer("host.speed", div(winHost, winWall))
		res.layer("host.slot_share", slotSeconds/(win.end-win.start))
		res.layer("wall.ops_per_s", median(sl.wallRate))
		res.layer("wall.plan_p50_ms", median(planWallMS))
		res.layer("wall.plan_p95_ms", percentile(planWallMS, 0.95))
		res.layer("wall.cpu_ms_per_op", median(sl.wallCPUMS))
		res.layer("wall.setup_s", median(setupWall))
		if err := tracedPass(ctx, res, st, run, client); err != nil {
			return nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = run.attempted, run.failed
	res.Failures = append(run.failures, res.Failures...)
	res.Correct = res.Failed == 0 && len(res.Guards) == 0
	return res, nil
}

// sliceStats holds, per window slice, the completed-and-correct ops per second
// and the daemon's CPU ms per such op, on the host clock and on the wall
// clock. The metrics taken as the median over slices are moved by a stall
// or a burst inside one slice in one value out of n, where a whole-window
// mean would carry all of it.
type sliceStats struct {
	hostRate, wallRate, hostCPUMS, wallCPUMS []float64
}

// sliceWindow cuts the window that began at wall time from (seconds since
// epoch) into len(cpuAt)-1 slices of the given length; cpuAt are the
// daemon's cumulative CPU seconds at the slice boundaries. A slice's
// length is taken on either clock, outside the host clock's slots.
func sliceWindow(clock *hostClock, from, slice float64, samples []sample, cpuAt []float64) sliceStats {
	n := len(cpuAt) - 1
	ops := make([]float64, n)
	for _, s := range samples {
		if k := int(math.Floor((s.end.Seconds() - from) / slice)); s.ok && k >= 0 && k < n {
			ops[k]++
		}
	}
	sl := sliceStats{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	for k := range ops {
		host, wall := clock.span(from+float64(k)*slice, from+float64(k+1)*slice)
		sl.hostRate[k], sl.wallRate[k] = div(ops[k], host), div(ops[k], wall)
		// CPU seconds are wall seconds of a busy core: the slice's mean
		// host speed, host/wall, prices them too.
		cpuMS := (cpuAt[k+1] - cpuAt[k]) * 1e3 / max(1, ops[k])
		sl.hostCPUMS[k], sl.wallCPUMS[k] = cpuMS*div(host, wall), cpuMS
	}
	return sl
}

// counters are the cumulative counts read just before and just after the
// window: the daemon's /v1/metrics, the host's CPU jiffies, and the load
// generator's own CPU seconds.
type counters struct {
	report               service.Report
	hostTotal, hostSteal float64
	selfCPU              float64
}

func readCounters(d *daemon) (c counters, err error) {
	if c.report, err = d.metrics(); err != nil {
		return c, err
	}
	if c.hostTotal, c.hostSteal, err = readHostCPU(); err != nil {
		return c, err
	}
	c.selfCPU, err = readProcCPU("self")
	return c, err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// outPath names a file in the run's output directory.
func (c config) outPath(name string) string { return filepath.Join(c.outDir, name) }
