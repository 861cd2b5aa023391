// Package autonomic closes the deployment loop the paper leaves open: a
// MAPE-K controller over a deployed middleware system. The paper plans a
// deployment once, offline, for a fixed platform and a known Wapp; its own
// experiments (§5.3) heterogenise the platform with background load, and
// its future work asks for statistical forecasting of execution times.
// This package combines both: Monitor samples observed throughput and
// per-server service times (one moving average per server, from which it
// learns effective per-node powers), Analyze runs a drift detector with
// hysteresis (power drift, server crash, throughput sag), Plan re-invokes
// a planner — by default the internal/portfolio fold over every stock
// planner — against the updated platform, and Execute applies the
// replanned tree as a minimal hierarchy.Diff patch to the running system
// instead of redeploying from scratch.
package autonomic

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/platform"
	"adept/internal/portfolio"
	"adept/internal/workload"
)

// Config tunes the control loop.
type Config struct {
	// Planner computes replacement deployments (default: the portfolio
	// race, whose throughput dominates every individual stock planner).
	Planner core.Planner
	// Platform is the nominal node pool (powers as benchmarked at deploy
	// time) plus the link bandwidth. Replanning starts from this pool with
	// learned effective powers substituted and crashed nodes removed.
	Platform *platform.Platform
	// Costs are the middleware cost parameters (Table 3).
	Costs model.Costs
	// Wapp is the nominal service cost in MFlop.
	Wapp float64
	// Demand optionally caps the planned throughput.
	Demand workload.Demand

	// Alpha is the EWMA smoothing of the per-server service-time
	// estimators (default 0.5: drift should be learned in a few windows).
	Alpha float64
	// DriftTolerance is the relative effective-vs-rated power deviation
	// that counts as drift (default 0.25).
	DriftTolerance float64
	// SagTolerance is the relative throughput drop below baseline that
	// counts as a sag (0 means the default 0.25; negative disables sag
	// detection).
	SagTolerance float64
	// Hysteresis is how many consecutive flagged windows are needed before
	// the loop reacts (default 2).
	Hysteresis int
	// CrashWindows is how many consecutive zero-completion windows mark a
	// server as crashed (0 means the default 3; negative disables crash
	// detection).
	CrashWindows int
	// MinGain is the minimum relative predicted-throughput improvement a
	// *structural* change must promise (default 0.05). Pure belief fixes
	// (SetPower) and crash evictions are applied regardless — the first is
	// nearly free, the second is an availability action.
	MinGain float64
	// Cooldown is how many windows the loop observes without reacting
	// after an adaptation, letting the estimators re-learn (default 2).
	Cooldown int
	// MaxCycles bounds Run (0 = until the context is cancelled).
	MaxCycles int

	// Journal, when non-nil, receives structured decision events
	// (detections with hysteresis state, replan outcomes, patch
	// applications, redeploys, cycle errors) for GET /v1/autonomic/events.
	Journal *obs.Journal
	// Logger receives the loop's structured logs; nil means discard.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Planner == nil {
		c.Planner = portfolio.New()
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	if c.DriftTolerance <= 0 {
		c.DriftTolerance = 0.25
	}
	if c.SagTolerance < 0 {
		c.SagTolerance = 0
	} else if c.SagTolerance == 0 {
		c.SagTolerance = 0.25
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 2
	}
	if c.CrashWindows < 0 {
		c.CrashWindows = 0
	} else if c.CrashWindows == 0 {
		c.CrashWindows = 3
	}
	if c.MinGain <= 0 {
		c.MinGain = 0.05
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

func (c Config) validate() error {
	if c.Platform == nil {
		return errors.New("autonomic: nil platform")
	}
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	if c.Wapp <= 0 {
		return fmt.Errorf("autonomic: Wapp must be positive, got %g", c.Wapp)
	}
	return nil
}

// AdaptationEvent records one applied reconfiguration.
type AdaptationEvent struct {
	// Cycle is the monitoring cycle the adaptation happened in.
	Cycle int `json:"cycle"`
	// At is the wall-clock time of the adaptation.
	At time.Time `json:"at"`
	// Reasons are the Analyze findings that triggered it.
	Reasons []string `json:"reasons"`
	// Ops renders the applied patch operations.
	Ops []string `json:"ops"`
	// FullRedeploy marks the root-swap fallback instead of a patch.
	FullRedeploy bool `json:"full_redeploy,omitempty"`
	// PredictedRhoBefore/After are the §3 model throughputs of the old and
	// new trees, both evaluated with the learned effective powers.
	PredictedRhoBefore float64 `json:"predicted_rho_before"`
	PredictedRhoAfter  float64 `json:"predicted_rho_after"`
	// Error records a partially applied patch.
	Error string `json:"error,omitempty"`
}

// Status is a snapshot of the controller for reporting.
type Status struct {
	Running         bool               `json:"running"`
	Cycles          int                `json:"cycles"`
	Adaptations     []AdaptationEvent  `json:"adaptations"`
	PatchOpsApplied int                `json:"patch_ops_applied"`
	FullRedeploys   int                `json:"full_redeploys"`
	Throughput      float64            `json:"throughput_rps"`
	Baseline        float64            `json:"baseline_rps"`
	EffectivePowers map[string]float64 `json:"effective_powers"`
	Hierarchy       string             `json:"hierarchy"`
	Elements        int                `json:"elements"`
	LastError       string             `json:"last_error,omitempty"`
}

// Controller runs the MAPE-K loop over one Target.
type Controller struct {
	cfg    Config
	target Target

	mu       sync.Mutex
	cur      *hierarchy.Hierarchy
	mon      *Monitor
	ana      *Analyzer
	crashed  map[string]bool // evicted nodes, excluded from every later replan
	running  bool
	cycles   int
	cooldown int
	history  []AdaptationEvent
	patchOps int
	redeploy int
	lastObs  Observation
	lastErr  string

	// virtualNow is the target's own clock: the sum of observed window
	// durations (simulated seconds under a sim target).
	virtualNow float64
	incidents  []Incident
	openIdx    int // index of the open incident in incidents, -1 if none

	// now is the wall clock every adaptation and incident stamp reads:
	// journal metadata, never an input to planning. It is time.Now outside
	// tests.
	now func() time.Time
}

// New builds a controller managing target, whose currently deployed tree
// is deployed (the controller clones it; rated powers evolve with applied
// SetPower patches).
func New(cfg Config, target Target, deployed *hierarchy.Hierarchy) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if target == nil {
		return nil, errors.New("autonomic: nil target")
	}
	if err := deployed.Validate(hierarchy.Structural); err != nil {
		return nil, fmt.Errorf("autonomic: deployed tree: %w", err)
	}
	return &Controller{
		cfg:     cfg,
		target:  target,
		cur:     deployed.Clone(),
		mon:     NewMonitor(cfg.Alpha, cfg.Wapp),
		ana:     NewAnalyzer(cfg.DriftTolerance, cfg.SagTolerance, cfg.Hysteresis, cfg.CrashWindows),
		crashed: make(map[string]bool),
		openIdx: -1,
		now:     time.Now,
	}, nil
}

// event journals one decision of the cycle running under ctx and mirrors
// it to the structured log. Safe with a nil journal (events drop) and
// unconfigured logger.
func (c *Controller) event(ctx context.Context, kind, msg string, fields map[string]string) {
	if c.cfg.Journal != nil {
		c.cfg.Journal.Append(kind, msg, fields)
	}
	if !c.cfg.Logger.Enabled(ctx, slog.LevelInfo) {
		return
	}
	attrs := make([]slog.Attr, 0, len(fields)+1)
	attrs = append(attrs, slog.String("kind", kind))
	for _, k := range slices.Sorted(maps.Keys(fields)) {
		attrs = append(attrs, slog.String(k, fields[k]))
	}
	c.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, msg, attrs...)
}

// Status snapshots the controller state.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Running:         c.running,
		Cycles:          c.cycles,
		Adaptations:     append([]AdaptationEvent(nil), c.history...),
		PatchOpsApplied: c.patchOps,
		FullRedeploys:   c.redeploy,
		Throughput:      c.lastObs.Throughput,
		Baseline:        c.ana.Baseline(),
		EffectivePowers: c.mon.EffectivePowers(),
		Hierarchy:       c.cur.String(),
		Elements:        c.cur.Len(),
		LastError:       c.lastErr,
	}
}

// Run executes MAPE cycles until the context is cancelled, MaxCycles is
// reached, or three consecutive cycles fail.
func (c *Controller) Run(ctx context.Context) error {
	c.mu.Lock()
	c.running = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.running = false
		c.mu.Unlock()
	}()
	consecutive := 0
	for i := 0; c.cfg.MaxCycles == 0 || i < c.cfg.MaxCycles; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.Step(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			consecutive++
			c.mu.Lock()
			c.lastErr = err.Error()
			cycle := c.cycles
			c.mu.Unlock()
			c.event(ctx, "cycle_error", "MAPE cycle failed", map[string]string{
				"cycle":       strconv.Itoa(cycle),
				"error":       err.Error(),
				"consecutive": strconv.Itoa(consecutive),
			})
			if consecutive >= 3 {
				return fmt.Errorf("autonomic: %d consecutive cycle failures, last: %w", consecutive, err)
			}
			continue
		}
		consecutive = 0
	}
	return nil
}

// Step runs one full MAPE cycle: observe a window, update the knowledge
// base, analyse for drift, and — when warranted — replan and patch.
func (c *Controller) Step(ctx context.Context) error {
	window, err := c.target.Observe(ctx)
	if err != nil {
		return fmt.Errorf("autonomic: monitor: %w", err)
	}

	c.mu.Lock()
	c.cycles = c.cycles + 1
	cycle := c.cycles
	c.lastObs = window
	c.virtualNow += window.Window
	c.mon.Update(window)
	if c.cooldown > 0 {
		c.cooldown--
		c.mu.Unlock()
		return nil
	}
	verdict := c.ana.Analyze(c.cur, window, c.mon)
	if !verdict.Act() {
		// A clean post-cooldown window closes the open incident, if any:
		// the system has measurably recovered from whatever was detected.
		closed, ok := c.incidentRecoverLocked(cycle)
		c.mu.Unlock()
		if ok {
			c.emitRecovered(ctx, closed)
		}
		return nil
	}
	incidentID := c.incidentDetect(cycle, verdict.Reasons)
	driftStreaks, zeroStreaks, sagStreak := c.ana.streaks()
	cur := c.cur.Clone()
	// Once evicted, a crashed node stays out of every future replan: the
	// verdict only carries this cycle's findings, the ban is permanent
	// knowledge.
	for _, name := range verdict.Crashed {
		c.crashed[name] = true
	}
	crashed := maps.Clone(c.crashed)
	c.mu.Unlock()

	c.event(ctx, "detect", strings.Join(verdict.Reasons, "; "), map[string]string{
		"cycle":          strconv.Itoa(cycle),
		"incident":       strconv.Itoa(incidentID),
		"drifted":        strconv.Itoa(len(verdict.Drifted)),
		"crashed":        strconv.Itoa(len(verdict.Crashed)),
		"sagging":        strconv.FormatBool(verdict.Sagging),
		"drift_streaks":  driftStreaks,
		"zero_streaks":   zeroStreaks,
		"sag_streak":     strconv.Itoa(sagStreak),
		"throughput_rps": strconv.FormatFloat(window.Throughput, 'f', 3, 64),
	})

	targetTree, before, after, err := c.plan(ctx, cur, crashed, verdict)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if in := c.openIncident(); in != nil && in.ReplanAt.IsZero() {
		in.ReplanAt, in.ReplanVirtual = c.now().UTC(), c.virtualNow
	}
	c.mu.Unlock()
	c.event(ctx, "replan", "replan evaluated", map[string]string{
		"cycle":      strconv.Itoa(cycle),
		"rho_before": strconv.FormatFloat(before, 'f', 3, 64),
		"rho_after":  strconv.FormatFloat(after, 'f', 3, 64),
	})
	return c.execute(ctx, cycle, cur, targetTree, verdict, before, after)
}

// plan is the P of MAPE: build the honest platform view (effective powers
// substituted, crashed nodes evicted), replan, and decide between the
// replanned structure and an in-place belief fix.
func (c *Controller) plan(ctx context.Context, cur *hierarchy.Hierarchy, crashed map[string]bool, v Verdict) (target *hierarchy.Hierarchy, rhoBefore, rhoAfter float64, err error) {
	// Rated powers of deployed elements carry the beliefs already patched
	// in; pool nodes outside the deployment keep their nominal benchmark.
	ratedByName := make(map[string]float64, cur.Len())
	cur.Walk(func(n hierarchy.Node) { ratedByName[n.Name] = n.Power })

	pool := &platform.Platform{
		Name:      c.cfg.Platform.Name,
		Bandwidth: c.cfg.Platform.Bandwidth,
	}
	for _, n := range c.cfg.Platform.Nodes {
		if crashed[n.Name] {
			continue
		}
		p := n.Power
		if rated, ok := ratedByName[n.Name]; ok {
			p = rated
		}
		if eff, ok := v.Drifted[n.Name]; ok {
			p = eff
		}
		// Powers drift with learned beliefs; links are physical and keep
		// the platform's per-node bandwidth.
		pool.Nodes = append(pool.Nodes, platform.Node{Name: n.Name, Power: p, LinkBandwidth: n.LinkBandwidth})
	}

	// The honest view of the current deployment: same structure, learned
	// powers, crashed servers excluded from service capacity. (A tree with
	// a crashed server cannot be evaluated honestly by the §3 model — the
	// eviction is forced regardless, so the comparison is skipped then.)
	honest := cur.Clone()
	for _, n := range honest.Nodes() {
		if eff, ok := v.Drifted[n.Name]; ok {
			if err := honest.SetBacking(n.ID, n.Name, eff); err != nil {
				return nil, 0, 0, fmt.Errorf("autonomic: %w", err)
			}
		}
	}
	honestEval := honest.Evaluate(c.cfg.Costs, c.cfg.Platform.Bandwidth, c.cfg.Wapp)
	rhoBefore = honestEval.Rho

	req := core.Request{
		Platform: pool,
		Costs:    c.cfg.Costs,
		Wapp:     c.cfg.Wapp,
		Demand:   c.cfg.Demand,
	}
	plan, err := c.cfg.Planner.PlanContext(ctx, req)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("autonomic: replan: %w", err)
	}
	rhoAfter = plan.Eval.Rho

	// Crash evictions always take the replanned tree (the crashed node
	// must leave). Otherwise a structural change must beat the honest
	// current deployment by MinGain; if it does not — or if it would swap
	// the root on a target that cannot rebuild from scratch — the
	// adaptation reduces to teaching the live system its effective powers.
	if len(v.Crashed) > 0 || plan.Eval.Rho > rhoBefore*(1+c.cfg.MinGain) {
		rootSwap := plan.Hierarchy.MustNode(plan.Hierarchy.Root()).Name != cur.MustNode(cur.Root()).Name
		if rootSwap && !c.target.CanRedeploy() {
			if len(v.Crashed) == 0 {
				return honest, rhoBefore, honestEval.Rho, nil
			}
			// The eviction is mandatory but the target cannot rebuild from
			// scratch, so the replanned root swap is unreachable: drop the
			// crashed leaves from the honest current tree in place instead.
			// Less throughput than the replanned shape, but expressible as
			// a patch the live system can absorb.
			evicted, err := evictLeaves(honest, v.Crashed)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("autonomic: evict without redeploy: %w", err)
			}
			ev := evicted.Evaluate(c.cfg.Costs, c.cfg.Platform.Bandwidth, c.cfg.Wapp)
			return evicted, rhoBefore, ev.Rho, nil
		}
		return plan.Hierarchy, rhoBefore, rhoAfter, nil
	}
	return honest, rhoBefore, honestEval.Rho, nil
}

// evictLeaves removes the named server leaves from h (as a patched
// copy). Names no longer present are skipped (a previous patch may
// already have dropped them).
func evictLeaves(h *hierarchy.Hierarchy, names []string) (*hierarchy.Hierarchy, error) {
	present := make(map[string]bool, h.Len())
	h.Walk(func(n hierarchy.Node) { present[n.Name] = true })
	var ops []hierarchy.Op
	for _, name := range names {
		if present[name] {
			ops = append(ops, hierarchy.Op{Kind: hierarchy.OpRemove, Name: name})
		}
	}
	if len(ops) == 0 {
		return h.Clone(), nil
	}
	return hierarchy.Apply(h, hierarchy.Patch{Ops: ops})
}

// execute is the E of MAPE: patch the live system with the diff, or
// redeploy it from scratch when the root changed, then record the
// adaptation.
func (c *Controller) execute(ctx context.Context, cycle int, cur, target *hierarchy.Hierarchy, v Verdict, rhoBefore, rhoAfter float64) error {
	patch, err := hierarchy.Diff(cur, target)
	rootSwap := errors.Is(err, hierarchy.ErrRootChanged)
	if err != nil && !rootSwap {
		return fmt.Errorf("autonomic: diff: %w", err)
	}
	if !rootSwap && patch.Len() == 0 {
		// Nothing to change (e.g. a sag with no better plan): reset the sag
		// detector so the finding does not re-fire every window, but keep
		// the drift/crash streaks building.
		c.mu.Lock()
		c.ana.ResetSag()
		if in := c.openIncident(); in != nil {
			in.NoChange = true
		}
		c.mu.Unlock()
		c.event(ctx, "no_change", "verdict produced no actionable patch", map[string]string{
			"cycle": strconv.Itoa(cycle),
		})
		return nil
	}

	ev := AdaptationEvent{Cycle: cycle, Reasons: v.Reasons, PredictedRhoBefore: rhoBefore, PredictedRhoAfter: rhoAfter}
	fields := map[string]string{
		"cycle":      strconv.Itoa(cycle),
		"rho_before": strconv.FormatFloat(rhoBefore, 'f', 3, 64),
		"rho_after":  strconv.FormatFloat(rhoAfter, 'f', 3, 64),
	}
	if rootSwap {
		// The teardown fallback for a change a patch cannot express.
		if err := c.target.Redeploy(ctx, target); err != nil {
			return fmt.Errorf("autonomic: full redeploy: %w", err)
		}
		ev.FullRedeploy = true
		c.adapt(target.Clone(), ev, v.Crashed)
		c.event(ctx, "redeploy", "full redeploy: "+strings.Join(v.Reasons, "; "), fields)
		return nil
	}

	applied, applyErr := c.target.Apply(ctx, patch)
	// Advance the controller's tree by exactly the applied prefix so the
	// knowledge base tracks the live system even on partial failure.
	next, err := hierarchy.Apply(cur, hierarchy.Patch{Ops: patch.Ops[:applied]})
	if err != nil {
		return fmt.Errorf("autonomic: state tracking: %w", err)
	}
	for _, op := range patch.Ops[:applied] {
		ev.Ops = append(ev.Ops, op.String())
	}
	fields["ops_applied"] = strconv.Itoa(applied)
	fields["ops_total"] = strconv.Itoa(patch.Len())
	if applyErr != nil {
		ev.Error = applyErr.Error()
		fields["error"] = ev.Error
	}
	c.adapt(next, ev, v.Crashed)
	c.event(ctx, "patch", "patch applied: "+strings.Join(v.Reasons, "; "), fields)
	if applyErr != nil {
		return fmt.Errorf("autonomic: patch partially applied (%d/%d ops): %w", applied, patch.Len(), applyErr)
	}
	return nil
}

// adapt records an adaptation the target carried out, by patch or by
// redeploy: it installs the tree the target now runs, appends ev stamped
// by the controller's clock, stamps the open incident, starts the
// cooldown, resets the analyzer (the adapted system defines new
// normality) and forgets the estimators of the evicted servers.
func (c *Controller) adapt(next *hierarchy.Hierarchy, ev AdaptationEvent, evicted []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev.At = c.now()
	c.cur = next
	c.history = append(c.history, ev)
	c.patchOps += len(ev.Ops)
	if ev.FullRedeploy {
		c.redeploy++
	}
	c.cooldown = c.cfg.Cooldown
	c.ana.Reset()
	for _, name := range evicted {
		c.mon.Forget(name)
	}
	if in := c.openIncident(); in != nil {
		if in.PatchAt.IsZero() {
			in.PatchAt, in.PatchVirtual = ev.At.UTC(), c.virtualNow
		}
		in.PatchOps += len(ev.Ops)
		in.FullRedeploy = in.FullRedeploy || ev.FullRedeploy
	}
}
