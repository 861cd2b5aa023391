// Package slo turns the time-series layer of internal/obs into
// operational answers: declarative service-level objectives with error
// budgets, multi-window burn-rate evaluation in the style of the SRE
// workbook, and an alert rule state machine (pending → firing →
// resolved) whose transitions land in the MAPE-K event journal.
//
// Every objective reduces to a (good, total) pair of cumulative
// counters: availability binds requests-minus-errors over requests,
// and a latency objective binds "requests at or under the threshold"
// over all requests using the histogram's cumulative buckets. The
// engine samples both into obs.Series rings and evaluates burn rates
// as windowed counter deltas, so its numbers are — by construction —
// the same numbers an external Prometheus would compute from the
// /metrics exposition with the PromQL equivalents in the README.
package slo

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"adept/internal/obs"
)

// ObjectiveType selects how an objective's (good, total) pair is bound.
const (
	TypeAvailability = "availability"
	TypeLatency      = "latency"
)

// AlertRule is one burn-rate alert on an objective: fire when the error
// budget burns faster than Burn× the sustainable rate over BOTH the
// short and the long trailing window (the short window gates on "still
// happening", the long window on "sustained enough to matter"), with
// an optional ForSeconds hold in pending before firing.
type AlertRule struct {
	// Severity labels the rule ("page", "ticket"); it distinguishes
	// multiple rules on one objective.
	Severity string `json:"severity"`
	// Burn is the burn-rate threshold: 1.0 consumes exactly the error
	// budget over the budget window, 14.4 is the classic fast-burn page.
	Burn float64 `json:"burn"`
	// ShortSeconds and LongSeconds are the two trailing windows.
	ShortSeconds float64 `json:"short_s"`
	LongSeconds  float64 `json:"long_s"`
	// ForSeconds holds the alert in pending until the condition has been
	// continuously true this long (0 = fire on first evaluation).
	ForSeconds float64 `json:"for_s,omitempty"`
}

func (r AlertRule) validate(obj string) error {
	if r.Severity == "" {
		return fmt.Errorf("slo: objective %q: alert rule needs a severity", obj)
	}
	if r.Burn <= 0 {
		return fmt.Errorf("slo: objective %q alert %q: burn %g must be positive", obj, r.Severity, r.Burn)
	}
	if r.ShortSeconds <= 0 || r.LongSeconds <= 0 {
		return fmt.Errorf("slo: objective %q alert %q: windows must be positive", obj, r.Severity)
	}
	if r.ShortSeconds > r.LongSeconds {
		return fmt.Errorf("slo: objective %q alert %q: short window %gs exceeds long window %gs", obj, r.Severity, r.ShortSeconds, r.LongSeconds)
	}
	if r.ForSeconds < 0 {
		return fmt.Errorf("slo: objective %q alert %q: for_s must be non-negative", obj, r.Severity)
	}
	return nil
}

// ObjectiveSpec declares one objective.
type ObjectiveSpec struct {
	Name string `json:"name"`
	// Type is "availability" (good = non-error requests) or "latency"
	// (good = requests at or under ThresholdMillis).
	Type string `json:"type"`
	// Target is the objective ratio in (0, 1), e.g. 0.995; the error
	// budget is 1-Target.
	Target float64 `json:"target"`
	// Endpoint scopes a latency objective to one endpoint's histogram
	// (the binder decides what the key means; adeptd uses its endpoint
	// names, "plan" by default).
	Endpoint string `json:"endpoint,omitempty"`
	// ThresholdMillis is the latency threshold (latency objectives
	// only). It snaps to the histogram's bucket ladder; the effective
	// bound is reported in the objective status.
	ThresholdMillis float64 `json:"threshold_ms,omitempty"`
	// Alerts are the burn-rate rules (default: a fast page and a slow
	// ticket scaled to the longest window).
	Alerts []AlertRule `json:"alerts,omitempty"`
}

func (o ObjectiveSpec) validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective needs a name")
	}
	switch o.Type {
	case TypeAvailability:
	case TypeLatency:
		if o.ThresholdMillis <= 0 {
			return fmt.Errorf("slo: latency objective %q needs a positive threshold_ms", o.Name)
		}
	default:
		return fmt.Errorf("slo: objective %q: unknown type %q (have %s, %s)", o.Name, o.Type, TypeAvailability, TypeLatency)
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo: objective %q: target %g outside (0, 1)", o.Name, o.Target)
	}
	for _, r := range o.Alerts {
		if err := r.validate(o.Name); err != nil {
			return err
		}
	}
	return nil
}

// Config is the engine's declarative rule set: the JSON schema of
// adeptd's -slo-config file.
type Config struct {
	Objectives []ObjectiveSpec `json:"objectives"`
}

// Validate checks the whole rule set (unique names, per-objective
// validity).
func (c Config) Validate() error {
	if len(c.Objectives) == 0 {
		return fmt.Errorf("slo: config declares no objectives")
	}
	seen := make(map[string]bool, len(c.Objectives))
	for _, o := range c.Objectives {
		if err := o.validate(); err != nil {
			return err
		}
		if seen[o.Name] {
			return fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
	}
	return nil
}

// ParseConfig decodes and validates a JSON rule set.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("slo: decode config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// DefaultAlerts returns the stock two-rule ladder: a fast-burn page
// (no hold) and a slow-burn ticket (held one short window), both
// scaled from the given base window in seconds.
func DefaultAlerts(base float64) []AlertRule {
	return []AlertRule{
		{Severity: "page", Burn: 6, ShortSeconds: base, LongSeconds: 4 * base, ForSeconds: 0},
		{Severity: "ticket", Burn: 1, ShortSeconds: 4 * base, LongSeconds: 20 * base, ForSeconds: base},
	}
}

// DefaultConfig is the rule set adeptd runs without -slo-config: 99.5%
// availability across all endpoints and a 2s p-latency objective on
// the plan endpoint at 99%, each with the stock fast-page/slow-ticket
// burn ladder on a 30s base window.
func DefaultConfig() Config {
	return Config{Objectives: []ObjectiveSpec{
		{
			Name:   "availability",
			Type:   TypeAvailability,
			Target: 0.995,
			Alerts: DefaultAlerts(30),
		},
		{
			Name:            "plan-latency",
			Type:            TypeLatency,
			Target:          0.99,
			Endpoint:        "plan",
			ThresholdMillis: 2000,
			Alerts:          DefaultAlerts(30),
		},
	}}
}

// Alert states.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Transition records one alert state change.
type Transition struct {
	At        time.Time `json:"at"`
	From      string    `json:"from"`
	To        string    `json:"to"`
	ShortBurn float64   `json:"short_burn"`
	LongBurn  float64   `json:"long_burn"`
}

// maxTransitions bounds the per-alert transition history.
const maxTransitions = 64

// alertState is one rule's live state machine.
type alertState struct {
	rule         AlertRule
	state        string
	since        time.Time
	pendingSince time.Time
	firedCount   int
	shortBurn    float64
	longBurn     float64
	transitions  []Transition
}

// objective is one bound objective's live state.
type objective struct {
	spec       ObjectiveSpec
	good       func() float64
	total      func() float64
	goodSeries *obs.Series
	totSeries  *obs.Series
	// effectiveThresholdMillis is the bucket-snapped latency bound the
	// binder actually enforces (latency objectives only).
	effectiveThresholdMillis float64
	alerts                   []*alertState
}

// Engine evaluates a rule set against (good, total) counter sources
// sampled into an obs.Store. Construction wires the rules; Bind
// attaches each objective's sources; Evaluate advances burn rates and
// alert state machines at an explicit timestamp, so the caller owns
// the clock (wall ticker in adeptd, virtual time in adeptsoak).
type Engine struct {
	mu         sync.Mutex
	store      *obs.Store
	journal    *obs.Journal
	objectives []*objective
	lastEval   time.Time
}

// NewEngine builds an engine over store; journal (optional) receives
// alert transitions.
func NewEngine(cfg Config, store *obs.Store, journal *obs.Journal) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("slo: nil store")
	}
	e := &Engine{store: store, journal: journal}
	for _, spec := range cfg.Objectives {
		o := &objective{spec: spec, effectiveThresholdMillis: spec.ThresholdMillis}
		for _, r := range spec.Alerts {
			o.alerts = append(o.alerts, &alertState{rule: r, state: StateInactive})
		}
		e.objectives = append(e.objectives, o)
	}
	return e, nil
}

// Bind attaches an objective's cumulative (good, total) sources and
// registers their series in the store under "slo_<name>_good" and
// "slo_<name>_total". effectiveThresholdMillis, when positive,
// overrides the spec threshold in status reports (the bucket-snapped
// bound a latency binder enforces).
func (e *Engine) Bind(name string, good, total func() float64, effectiveThresholdMillis float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objectives {
		if o.spec.Name != name {
			continue
		}
		o.good = good
		o.total = total
		o.goodSeries = e.store.Watch("slo_"+name+"_good", good)
		o.totSeries = e.store.Watch("slo_"+name+"_total", total)
		if effectiveThresholdMillis > 0 {
			o.effectiveThresholdMillis = effectiveThresholdMillis
		}
		return nil
	}
	return fmt.Errorf("slo: no objective %q to bind", name)
}

// burnOver computes the burn rate over one trailing window from the
// good/total series: (error rate over the window) / (error budget).
// A window with no traffic burns nothing.
func (o *objective) burnOver(window time.Duration, target float64) float64 {
	dTot, _, ok := o.totSeries.Delta(window)
	if !ok || dTot <= 0 {
		return 0
	}
	dGood, _, _ := o.goodSeries.Delta(window)
	errRate := (dTot - dGood) / dTot
	if errRate < 0 {
		errRate = 0
	}
	return errRate / (1 - target)
}

// Evaluate advances every objective's burn rates and alert state
// machines at timestamp now. Call it after the store sampled the same
// tick, so the trailing windows include the point at now.
func (e *Engine) Evaluate(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastEval = now
	for _, o := range e.objectives {
		if o.good == nil {
			continue
		}
		for _, a := range o.alerts {
			a.shortBurn = o.burnOver(secondsToDuration(a.rule.ShortSeconds), o.spec.Target)
			a.longBurn = o.burnOver(secondsToDuration(a.rule.LongSeconds), o.spec.Target)
			condition := a.shortBurn >= a.rule.Burn && a.longBurn >= a.rule.Burn
			switch a.state {
			case StateInactive, StateResolved:
				if condition {
					e.transition(o, a, StatePending, now)
					a.pendingSince = now
					if a.rule.ForSeconds == 0 {
						e.transition(o, a, StateFiring, now)
						a.firedCount++
					}
				}
			case StatePending:
				switch {
				case !condition:
					// A pending alert whose condition cleared never fired:
					// it goes back to inactive, not resolved.
					e.transition(o, a, StateInactive, now)
				case now.Sub(a.pendingSince) >= secondsToDuration(a.rule.ForSeconds):
					e.transition(o, a, StateFiring, now)
					a.firedCount++
				}
			case StateFiring:
				if !condition {
					e.transition(o, a, StateResolved, now)
				}
			}
		}
	}
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// transition moves an alert to a new state, records it, and journals
// it.
func (e *Engine) transition(o *objective, a *alertState, to string, now time.Time) {
	tr := Transition{At: now, From: a.state, To: to, ShortBurn: a.shortBurn, LongBurn: a.longBurn}
	a.state = to
	a.since = now
	a.transitions = append(a.transitions, tr)
	if len(a.transitions) > maxTransitions {
		a.transitions = a.transitions[len(a.transitions)-maxTransitions:]
	}
	if e.journal != nil {
		e.journal.Append("alert", fmt.Sprintf("%s/%s %s -> %s", o.spec.Name, a.rule.Severity, tr.From, tr.To), map[string]string{
			"objective":  o.spec.Name,
			"severity":   a.rule.Severity,
			"from":       tr.From,
			"to":         tr.To,
			"short_burn": fmt.Sprintf("%.3f", tr.ShortBurn),
			"long_burn":  fmt.Sprintf("%.3f", tr.LongBurn),
		})
	}
}

// WindowBurn reports one alert rule's current burn rates.
type WindowBurn struct {
	Severity     string  `json:"severity"`
	Burn         float64 `json:"burn_threshold"`
	ShortSeconds float64 `json:"short_s"`
	LongSeconds  float64 `json:"long_s"`
	ShortBurn    float64 `json:"short_burn"`
	LongBurn     float64 `json:"long_burn"`
	Condition    bool    `json:"condition"`
}

// ObjectiveStatus is one objective's snapshot, the element of
// GET /v1/slo.
type ObjectiveStatus struct {
	Name     string  `json:"name"`
	Type     string  `json:"type"`
	Target   float64 `json:"target"`
	Endpoint string  `json:"endpoint,omitempty"`
	// ThresholdMillis is the *effective* (bucket-snapped) latency bound.
	ThresholdMillis float64 `json:"threshold_ms,omitempty"`
	Good            float64 `json:"good"`
	Total           float64 `json:"total"`
	// Compliance is the lifetime good/total ratio (1 with no traffic).
	Compliance float64 `json:"compliance"`
	// ErrorBudget is 1-target; BudgetConsumed is the fraction of it
	// spent so far ((1-compliance)/(1-target), may exceed 1);
	// BudgetRemaining is 1-consumed (negative once overspent).
	ErrorBudget     float64      `json:"error_budget"`
	BudgetConsumed  float64      `json:"budget_consumed"`
	BudgetRemaining float64      `json:"budget_remaining"`
	Burns           []WindowBurn `json:"burns"`
	Bound           bool         `json:"bound"`
}

// Objectives snapshots every objective's status.
func (e *Engine) Objectives() []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(e.objectives))
	for _, o := range e.objectives {
		st := ObjectiveStatus{
			Name:        o.spec.Name,
			Type:        o.spec.Type,
			Target:      o.spec.Target,
			Endpoint:    o.spec.Endpoint,
			Compliance:  1,
			ErrorBudget: 1 - o.spec.Target,
			Bound:       o.good != nil,
		}
		if o.spec.Type == TypeLatency {
			st.ThresholdMillis = o.effectiveThresholdMillis
		}
		if o.good != nil {
			st.Good = o.good()
			st.Total = o.total()
			if st.Total > 0 {
				st.Compliance = st.Good / st.Total
			}
			st.BudgetConsumed = (1 - st.Compliance) / (1 - o.spec.Target)
			st.BudgetRemaining = 1 - st.BudgetConsumed
			// Guard against float dust on the fully compliant path.
			if math.Abs(st.BudgetConsumed) < 1e-12 {
				st.BudgetConsumed = 0
				st.BudgetRemaining = 1
			}
		}
		for _, a := range o.alerts {
			st.Burns = append(st.Burns, WindowBurn{
				Severity:     a.rule.Severity,
				Burn:         a.rule.Burn,
				ShortSeconds: a.rule.ShortSeconds,
				LongSeconds:  a.rule.LongSeconds,
				ShortBurn:    a.shortBurn,
				LongBurn:     a.longBurn,
				Condition:    a.shortBurn >= a.rule.Burn && a.longBurn >= a.rule.Burn,
			})
		}
		out = append(out, st)
	}
	return out
}

// AlertStatus is one alert rule's snapshot, the element of
// GET /v1/alerts.
type AlertStatus struct {
	// Name is "<objective>/<severity>".
	Name        string       `json:"name"`
	Objective   string       `json:"objective"`
	Severity    string       `json:"severity"`
	State       string       `json:"state"`
	Since       time.Time    `json:"since,omitzero"`
	FiredCount  int          `json:"fired_count"`
	Rule        AlertRule    `json:"rule"`
	ShortBurn   float64      `json:"short_burn"`
	LongBurn    float64      `json:"long_burn"`
	Transitions []Transition `json:"transitions,omitempty"`
}

// Alerts snapshots every alert rule's state, sorted by name.
func (e *Engine) Alerts() []AlertStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []AlertStatus
	for _, o := range e.objectives {
		for _, a := range o.alerts {
			out = append(out, AlertStatus{
				Name:        o.spec.Name + "/" + a.rule.Severity,
				Objective:   o.spec.Name,
				Severity:    a.rule.Severity,
				State:       a.state,
				Since:       a.since,
				FiredCount:  a.firedCount,
				Rule:        a.rule,
				ShortBurn:   a.shortBurn,
				LongBurn:    a.longBurn,
				Transitions: append([]Transition(nil), a.transitions...),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
