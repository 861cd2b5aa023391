// Command adeptsoak is the long-running churn soak harness: it plans a
// deployment, runs it on the deterministic simulator under one or more
// churn schedules (crash storms, join/leave flapping, correlated cluster
// failures, flash crowds, diurnal demand), drives the MAPE-K control
// loop and the SLO engine on simulated time, and emits a JSON timeline
// report — SLO compliance, burn-rate alert transitions, correlated
// incidents with measured MTTR, and sampled time series.
//
// Everything runs on the virtual clock, so a "ten minute" soak finishes
// in seconds and two runs with the same flags produce the same faults
// (the report's wall-clock MTTRs and timestamps still differ — they
// measure the host, not the simulation).
//
// The report self-gates for CI: -min-availability, -require-incidents
// and -require-resolved-alert turn quality regressions into a nonzero
// exit instead of a graph somebody has to look at.
//
// Usage:
//
//	adeptsoak [-duration 600] [-window 10] [-families crash-storm,flash-crowd]
//	          [-nodes 12] [-clients 6] [-seed 1] [-intensity 0.3]
//	          [-recover-after 60] [-slo-target 0.995] [-out report.json]
//	          [-min-availability 0.9] [-require-incidents 1]
//	          [-require-resolved-alert]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"adept/internal/autonomic"
	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/scenario"
	"adept/internal/service"
	"adept/internal/sim"
	"adept/internal/slo"
	"adept/internal/stats"
	"adept/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adeptsoak:", err)
		os.Exit(1)
	}
}

// Report is the soak's JSON output.
type Report struct {
	// Config echo, so a report is self-describing.
	Families    []string `json:"families"`
	DurationS   float64  `json:"duration_s"`
	WindowS     float64  `json:"window_s"`
	Cycles      int      `json:"cycles"`
	Nodes       int      `json:"nodes"`
	Clients     int      `json:"clients"`
	Seed        int64    `json:"seed"`
	Planner     string   `json:"planner"`
	WallSeconds float64  `json:"wall_seconds"`

	// Raw platform counters; the SLO numbers below derive from exactly
	// these, so report consumers can re-check the arithmetic.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Availability is completed/(completed+failed) — the measured ratio
	// the availability objective scores.
	Availability float64 `json:"availability"`
	// Latency percentiles over every completed request (virtual seconds).
	LatencyP50S float64 `json:"latency_p50_s,omitempty"`
	LatencyP99S float64 `json:"latency_p99_s,omitempty"`

	Objectives []slo.ObjectiveStatus  `json:"objectives"`
	Alerts     []slo.AlertStatus      `json:"alerts"`
	Incidents  []autonomic.Incident   `json:"incidents"`
	MTTR       autonomic.MTTRSummary  `json:"mttr"`
	Adaptation autonomic.Status       `json:"adaptation"`
	Timeline   map[string][]TimePoint `json:"timeline"`
	// JournalEvents counts MAPE-K decision events (including alert
	// transitions journalled by the SLO engine).
	JournalEvents uint64 `json:"journal_events"`
	// Schedule is the expanded churn schedule that was injected.
	Schedule []sim.LoadPhase `json:"schedule"`
}

// TimePoint is one sample of one series, on the virtual clock.
type TimePoint struct {
	VirtualS float64 `json:"t_s"`
	Value    float64 `json:"v"`
}

func run() error {
	var (
		duration     = flag.Float64("duration", 600, "soak length in virtual seconds")
		window       = flag.Float64("window", 10, "MAPE-K measurement window in virtual seconds (also the sampling tick)")
		families     = flag.String("families", "crash-storm,flash-crowd", "comma-separated churn families to overlay (crash-storm, join-leave, cluster-failure, flash-crowd, diurnal)")
		nodes        = flag.Int("nodes", 12, "platform size (nodes)")
		clients      = flag.Int("clients", 6, "base closed-loop client population")
		seed         = flag.Int64("seed", 1, "seed for platform generation and churn schedules")
		intensity    = flag.Float64("intensity", 0.3, "churn intensity (fault fraction / demand surge multiple)")
		recoverAfter = flag.Float64("recover-after", 60, "restore crashed servers after this many virtual seconds (0 = family default; storms then leave them down)")
		plannerName  = flag.String("planner", "heuristic", "initial-deployment planner")
		sloTarget    = flag.Float64("slo-target", 0.995, "availability SLO target in (0,1)")
		sloConfig    = flag.String("slo-config", "", "JSON SLO config file (overrides -slo-target; availability objectives bind to the sim counters)")
		outPath      = flag.String("out", "", "write the JSON report here (empty = stdout)")
		minAvail     = flag.Float64("min-availability", -1, "fail when measured availability is below this (negative = no gate)")
		reqIncidents = flag.Int("require-incidents", 0, "fail with fewer resolved incidents than this")
		reqResolved  = flag.Bool("require-resolved-alert", false, "fail unless at least one alert fired and resolved")
	)
	flag.Parse()
	start := time.Now()

	if *duration <= 0 || *window <= 0 || *duration < 2**window {
		return fmt.Errorf("need positive -window and -duration of at least two windows")
	}
	cycles := int(*duration / *window)

	// Plan the initial deployment, exactly as adeptd would.
	plat, err := scenario.Spec{
		Family: scenario.Clustered, Name: "soak", N: *nodes,
		MinPower: 100, MaxPower: 800, Seed: *seed,
	}.Generate()
	if err != nil {
		return err
	}
	req := core.Request{
		Platform: plat,
		Costs:    model.DIETDefaults(),
		Wapp:     workload.DGEMM{N: 310}.MFlop(),
	}
	planner, err := service.SelectPlanner(*plannerName)
	if err != nil {
		return fmt.Errorf("%v (have %v)", err, service.PlannerNames())
	}
	ctx := context.Background()
	plan, err := planner.PlanContext(ctx, req)
	if err != nil {
		return err
	}
	h := plan.Hierarchy

	// Overlay one churn schedule per requested family on the deployment's
	// servers. The whole middle of the soak churns; the first and last
	// tenth stay calm so alerts have room to resolve and MTTR to be
	// measured.
	var serverNames []string
	for _, id := range h.Servers() {
		serverNames = append(serverNames, h.MustNode(id).Name)
	}
	sort.Strings(serverNames)
	var fams []string
	var schedule []sim.LoadPhase
	for i, f := range strings.Split(*families, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		spec := scenario.ChurnSpec{
			Family:       scenario.ChurnFamily(f),
			Servers:      serverNames,
			Start:        *duration * 0.1,
			Duration:     *duration * 0.6,
			Seed:         *seed + int64(i),
			Intensity:    *intensity,
			BaseClients:  *clients,
			RecoverAfter: *recoverAfter,
		}
		phases, err := spec.Phases()
		if err != nil {
			return err
		}
		schedule = append(schedule, phases...)
		fams = append(fams, f)
	}
	if len(fams) == 0 {
		return fmt.Errorf("no churn families given")
	}
	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].At < schedule[j].At })

	managed, err := sim.NewManaged(h, req.Costs, plat.Bandwidth, req.Wapp, *clients, schedule)
	if err != nil {
		return err
	}

	// The MAPE-K loop rides the same simulation. Sag detection is off:
	// demand families legitimately halve throughput, and a soak wants
	// incidents to mean faults, not traffic.
	journal := obs.NewJournal(4096)
	ctrl, err := autonomic.New(autonomic.Config{
		Platform:     plat,
		Costs:        req.Costs,
		Wapp:         req.Wapp,
		SagTolerance: -1,
		MaxCycles:    cycles,
		Journal:      journal,
	}, &autonomic.SimTarget{Managed: managed, Window: *window}, h)
	if err != nil {
		return err
	}

	// SLO engine on the virtual clock: the availability objective binds to
	// the platform's cumulative (completed, completed+failed) counters.
	store := obs.NewStore(cycles + 2)
	sloCfg := slo.Config{Objectives: []slo.ObjectiveSpec{{
		Name:   "availability",
		Type:   slo.TypeAvailability,
		Target: *sloTarget,
		Alerts: slo.DefaultAlerts(3 * *window),
	}}}
	if *sloConfig != "" {
		data, err := os.ReadFile(*sloConfig)
		if err != nil {
			return err
		}
		if sloCfg, err = slo.ParseConfig(data); err != nil {
			return fmt.Errorf("%s: %w", *sloConfig, err)
		}
	}
	eng, err := slo.NewEngine(sloCfg, store, journal)
	if err != nil {
		return err
	}
	good := func() float64 { return float64(managed.Completed()) }
	total := func() float64 { return float64(managed.Completed() + managed.Failed()) }
	for _, spec := range sloCfg.Objectives {
		if spec.Type != slo.TypeAvailability {
			return fmt.Errorf("soak slo config: objective %q: only availability objectives bind to the simulator", spec.Name)
		}
		if err := eng.Bind(spec.Name, good, total, 0); err != nil {
			return err
		}
	}
	store.Watch("completed_total", good)
	store.Watch("failed_total", func() float64 { return float64(managed.Failed()) })
	store.Watch("active_clients", func() float64 { return float64(managed.ActiveClients()) })
	store.Watch("virtual_now_s", managed.Now)

	// Drive: one MAPE cycle per window, then sample and evaluate at the
	// corresponding virtual timestamp.
	base := time.Now().Truncate(time.Second)
	virtual := func() time.Time { return base.Add(time.Duration(managed.Now() * float64(time.Second))) }
	store.Sample(virtual())
	eng.Evaluate(virtual())
	consecutive := 0
	for i := 0; i < cycles; i++ {
		// Mirror Controller.Run's tolerance: an isolated cycle failure
		// (e.g. a momentarily unplannable pool mid-storm) is journalled by
		// the controller and ridden out; three in a row abort the soak.
		if err := ctrl.Step(ctx); err != nil {
			consecutive++
			if consecutive >= 3 {
				return fmt.Errorf("cycle %d: %d consecutive failures, last: %w", i, consecutive, err)
			}
		} else {
			consecutive = 0
		}
		now := virtual()
		store.Sample(now)
		eng.Evaluate(now)
	}

	// Assemble the report.
	incidents := ctrl.Incidents()
	if incidents == nil {
		incidents = []autonomic.Incident{}
	}
	rep := Report{
		Families:      fams,
		DurationS:     *duration,
		WindowS:       *window,
		Cycles:        cycles,
		Nodes:         *nodes,
		Clients:       *clients,
		Seed:          *seed,
		Planner:       plan.Planner,
		WallSeconds:   time.Since(start).Seconds(),
		Completed:     managed.Completed(),
		Failed:        managed.Failed(),
		Objectives:    eng.Objectives(),
		Alerts:        eng.Alerts(),
		Incidents:     incidents,
		MTTR:          autonomic.SummarizeMTTR(incidents),
		Adaptation:    ctrl.Status(),
		Timeline:      timeline(store, base),
		JournalEvents: journal.Total(),
		Schedule:      schedule,
	}
	if tot := rep.Completed + rep.Failed; tot > 0 {
		rep.Availability = float64(rep.Completed) / float64(tot)
	}
	if lats := managed.Latencies(); len(lats) > 0 {
		rep.LatencyP50S = stats.Percentile(lats, 50)
		rep.LatencyP99S = stats.Percentile(lats, 99)
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	return gate(rep, *minAvail, *reqIncidents, *reqResolved)
}

// gate turns report-level quality requirements into a nonzero exit.
func gate(rep Report, minAvail float64, reqIncidents int, reqResolved bool) error {
	if minAvail >= 0 && rep.Availability < minAvail {
		return fmt.Errorf("availability %.6f below -min-availability %.6f", rep.Availability, minAvail)
	}
	if rep.MTTR.Resolved < reqIncidents {
		return fmt.Errorf("%d resolved incidents, -require-incidents wants %d", rep.MTTR.Resolved, reqIncidents)
	}
	for _, in := range rep.Incidents {
		if in.Resolved && !(in.MTTRVirtualSeconds > 0) {
			return fmt.Errorf("incident %d resolved with non-positive MTTR %g", in.ID, in.MTTRVirtualSeconds)
		}
	}
	if reqResolved {
		ok := false
		for _, a := range rep.Alerts {
			fired, resolved := false, false
			for _, tr := range a.Transitions {
				if tr.To == slo.StateFiring {
					fired = true
				}
				if tr.To == slo.StateResolved {
					resolved = true
				}
			}
			if fired && resolved {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("no alert completed the firing->resolved lifecycle")
		}
	}
	return nil
}

// timeline converts the store's samples to virtual-second offsets.
func timeline(store *obs.Store, base time.Time) map[string][]TimePoint {
	out := make(map[string][]TimePoint)
	for name, pts := range store.Snapshot() {
		tl := make([]TimePoint, len(pts))
		for i, p := range pts {
			tl[i] = TimePoint{VirtualS: p.T.Sub(base).Seconds(), Value: p.V}
		}
		out[name] = tl
	}
	return out
}
