package autonomic

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"adept/internal/hierarchy"
)

// Analyzer is the A of MAPE-K: a drift detector with hysteresis. Three
// signals can trigger replanning:
//
//   - power drift: a server's learned effective power deviates from its
//     rated power by more than DriftTolerance for Hysteresis consecutive
//     windows (the §5.3 background-load heterogenisation happening live);
//   - crash: a deployed server's completion counter stays frozen for
//     CrashWindows consecutive windows while the platform as a whole keeps
//     completing requests (the CrashServer fault path);
//   - throughput sag: measured throughput falls more than SagTolerance
//     below its slow-moving baseline for Hysteresis consecutive windows
//     (demand shifts and drifts the per-server signals miss).
//
// Hysteresis is the loop's stability mechanism: a single noisy window
// never triggers a reconfiguration, and the post-adaptation cooldown in
// the controller keeps the loop from chasing its own transients.
type Analyzer struct {
	driftTol     float64
	sagTol       float64
	hysteresis   int
	crashWindows int

	driftStreak map[string]int
	zeroStreak  map[string]int
	sagStreak   int

	baseline     float64 // slow EWMA of observed throughput
	baselineSeen bool
}

// baselineAlpha smooths the throughput baseline much more slowly than the
// per-server estimators, so a sag is measured against pre-drift normality.
const baselineAlpha = 0.1

// NewAnalyzer builds the drift detector.
func NewAnalyzer(driftTol, sagTol float64, hysteresis, crashWindows int) *Analyzer {
	return &Analyzer{
		driftTol:     driftTol,
		sagTol:       sagTol,
		hysteresis:   hysteresis,
		crashWindows: crashWindows,
		driftStreak:  make(map[string]int),
		zeroStreak:   make(map[string]int),
	}
}

// Verdict is the analyzer's conclusion for one window.
type Verdict struct {
	// Drifted maps flagged server names to their learned effective powers.
	Drifted map[string]float64
	// Crashed lists servers whose counters froze.
	Crashed []string
	// Sagging reports a sustained throughput drop below baseline.
	Sagging bool
	// Reasons renders the findings for the adaptation history.
	Reasons []string
}

// Act reports whether the verdict warrants a planning run.
func (v Verdict) Act() bool {
	return len(v.Drifted) > 0 || len(v.Crashed) > 0 || v.Sagging
}

// Analyze folds one window into the streak counters and returns the
// verdict. cur is the currently deployed tree (rated powers); mon holds
// the learned effective powers.
func (a *Analyzer) Analyze(cur *hierarchy.Hierarchy, obs Observation, mon *Monitor) Verdict {
	v := Verdict{Drifted: make(map[string]float64)}

	rated := make(map[string]float64)
	cur.Walk(func(n hierarchy.Node) {
		if n.Role == hierarchy.RoleServer {
			rated[n.Name] = n.Power
		}
	})

	// Power drift, per deployed server with a learned effective power.
	names := slices.Sorted(maps.Keys(rated))
	for _, name := range names {
		eff, ok := mon.EffectivePower(name)
		if !ok {
			continue
		}
		dev := (eff - rated[name]) / rated[name]
		if dev < 0 {
			dev = -dev
		}
		if dev > a.driftTol {
			a.driftStreak[name]++
		} else {
			a.driftStreak[name] = 0
		}
		if a.driftStreak[name] >= a.hysteresis {
			v.Drifted[name] = eff
			v.Reasons = append(v.Reasons, fmt.Sprintf("drift: %s rated %.0f, effective %.0f MFlop/s", name, rated[name], eff))
		}
	}

	// Crash: frozen counter while the platform still completes work.
	if a.crashWindows > 0 && obs.Completed > 0 {
		for _, name := range names {
			served, deployed := obs.Served[name]
			if !deployed {
				continue
			}
			if served == 0 {
				a.zeroStreak[name]++
			} else {
				a.zeroStreak[name] = 0
			}
			if a.zeroStreak[name] >= a.crashWindows {
				v.Crashed = append(v.Crashed, name)
				v.Reasons = append(v.Reasons, fmt.Sprintf("crash: %s served nothing for %d windows", name, a.zeroStreak[name]))
			}
		}
	}

	// Throughput sag against the slow baseline.
	if a.baselineSeen && a.sagTol > 0 && obs.Throughput < a.baseline*(1-a.sagTol) {
		a.sagStreak++
	} else {
		a.sagStreak = 0
	}
	if a.sagStreak >= a.hysteresis {
		v.Sagging = true
		v.Reasons = append(v.Reasons, fmt.Sprintf("sag: throughput %.2f below baseline %.2f req/s", obs.Throughput, a.baseline))
	}
	if !a.baselineSeen {
		a.baseline = obs.Throughput
		a.baselineSeen = true
	} else {
		a.baseline = baselineAlpha*obs.Throughput + (1-baselineAlpha)*a.baseline
	}

	// Drop streaks of servers that left the deployment.
	gone := func(name string, _ int) bool { _, ok := rated[name]; return !ok }
	maps.DeleteFunc(a.driftStreak, gone)
	maps.DeleteFunc(a.zeroStreak, gone)
	return v
}

// Reset clears the streaks and the throughput baseline after an applied
// reconfiguration: the adapted system defines new normality.
func (a *Analyzer) Reset() {
	a.driftStreak = make(map[string]int)
	a.zeroStreak = make(map[string]int)
	a.sagStreak = 0
	a.baselineSeen = false
}

// ResetSag clears only the sag detector: the response when a sag verdict
// produced no actionable change. Drift and crash streaks keep building —
// wiping them here could mask a crash that is one window away from its
// threshold.
func (a *Analyzer) ResetSag() {
	a.sagStreak = 0
	a.baselineSeen = false
}

// Baseline exposes the current throughput baseline for status reports.
func (a *Analyzer) Baseline() float64 { return a.baseline }

// streaks renders the hysteresis state for the decision journal: the
// per-server drift and zero-completion streaks ("node3:2,node7:1", non-zero
// lengths in name order) and the sag streak. An event that says "drift
// detected" is only debuggable alongside how long each signal had been
// building.
func (a *Analyzer) streaks() (drift, zero string, sag int) {
	render := func(streak map[string]int) string {
		var parts []string
		for _, name := range slices.Sorted(maps.Keys(streak)) {
			if n := streak[name]; n > 0 {
				parts = append(parts, name+":"+strconv.Itoa(n))
			}
		}
		return strings.Join(parts, ",")
	}
	return render(a.driftStreak), render(a.zeroStreak), a.sagStreak
}
