package slo

import (
	"strings"
	"testing"
	"time"

	"adept/internal/obs"
)

func ts(sec int) time.Time {
	return time.Unix(1_700_000_000+int64(sec), 0).UTC()
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []struct {
		name string
		json string
		want string
	}{
		{"empty", `{}`, "no objectives"},
		{"no name", `{"objectives":[{"type":"availability","target":0.9}]}`, "needs a name"},
		{"bad type", `{"objectives":[{"name":"x","type":"weird","target":0.9}]}`, "unknown type"},
		{"bad target", `{"objectives":[{"name":"x","type":"availability","target":1.5}]}`, "outside (0, 1)"},
		{"latency no threshold", `{"objectives":[{"name":"x","type":"latency","target":0.9}]}`, "threshold_ms"},
		{"dup", `{"objectives":[{"name":"x","type":"availability","target":0.9},{"name":"x","type":"availability","target":0.9}]}`, "duplicate"},
		{"bad windows", `{"objectives":[{"name":"x","type":"availability","target":0.9,"alerts":[{"severity":"page","burn":2,"short_s":60,"long_s":30}]}]}`, "exceeds long window"},
		{"bad burn", `{"objectives":[{"name":"x","type":"availability","target":0.9,"alerts":[{"severity":"page","burn":0,"short_s":30,"long_s":60}]}]}`, "must be positive"},
	}
	for _, c := range bad {
		_, err := ParseConfig([]byte(c.json))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	good := `{"objectives":[{"name":"avail","type":"availability","target":0.99,
		"alerts":[{"severity":"page","burn":10,"short_s":30,"long_s":120,"for_s":10}]}]}`
	cfg, err := ParseConfig([]byte(good))
	if err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if len(cfg.Objectives) != 1 || cfg.Objectives[0].Alerts[0].Burn != 10 {
		t.Fatalf("parsed config = %+v", cfg)
	}
}

// engineFixture binds one availability objective (target 0.9, budget 10%)
// with a single alert rule to hand-controlled good/total counters.
func engineFixture(t *testing.T, rule AlertRule) (*Engine, *obs.Journal, *float64, *float64) {
	t.Helper()
	store := obs.NewStore(256)
	journal := obs.NewJournal(256)
	cfg := Config{Objectives: []ObjectiveSpec{{
		Name:   "avail",
		Type:   TypeAvailability,
		Target: 0.9,
		Alerts: []AlertRule{rule},
	}}}
	eng, err := NewEngine(cfg, store, journal)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	good := new(float64)
	total := new(float64)
	if err := eng.Bind("avail", func() float64 { return *good }, func() float64 { return *total }, 0); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if o := eng.Objectives()[0]; !o.Bound {
		t.Fatalf("objective %s not bound after Bind", o.Name)
	}
	// tick advances one second: accrue (dGood, dTotal), sample, evaluate.
	return eng, journal, good, total
}

func oneAlert(t *testing.T, eng *Engine) AlertStatus {
	t.Helper()
	alerts := eng.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("Alerts = %v, want exactly one", alerts)
	}
	return alerts[0]
}

func TestEngineBurnAndAlertLifecycle(t *testing.T) {
	// Budget is 10%. 50% errors => burn 5 over any window that saw them.
	rule := AlertRule{Severity: "page", Burn: 4, ShortSeconds: 3, LongSeconds: 10, ForSeconds: 2}
	eng, journal, good, total := engineFixture(t, rule)
	store := engStore(eng)

	step := func(sec int, dGood, dTotal float64) {
		*good += dGood
		*total += dTotal
		now := ts(sec)
		store.Sample(now)
		eng.Evaluate(now)
	}

	// 10s of clean traffic: inactive throughout.
	sec := 0
	for ; sec < 10; sec++ {
		step(sec, 10, 10)
	}
	if st := oneAlert(t, eng); st.State != StateInactive {
		t.Fatalf("clean traffic: state = %s, want inactive", st.State)
	}

	// 50% errors: burn 5 > 4 in the short window after a couple of ticks,
	// and the long window (10s) also crosses 4 once enough bad seconds
	// accumulate. Walk until pending appears.
	for ; sec < 30; sec++ {
		step(sec, 5, 10)
		if oneAlert(t, eng).State == StatePending {
			break
		}
	}
	st := oneAlert(t, eng)
	if st.State != StatePending {
		t.Fatalf("sustained errors never reached pending; state = %s, burns = %g/%g", st.State, st.ShortBurn, st.LongBurn)
	}
	pendingAt := sec

	// Hold the errors: ForSeconds=2 promotes pending -> firing.
	for sec++; sec <= pendingAt+3; sec++ {
		step(sec, 5, 10)
	}
	st = oneAlert(t, eng)
	if st.State != StateFiring || st.FiredCount != 1 {
		t.Fatalf("after hold: state = %s fired=%d, want firing/1", st.State, st.FiredCount)
	}

	// Clean traffic again: short window (3s) clears first and the AND
	// condition drops, resolving the alert.
	for ; sec < 100; sec++ {
		step(sec, 10, 10)
		if oneAlert(t, eng).State == StateResolved {
			break
		}
	}
	st = oneAlert(t, eng)
	if st.State != StateResolved {
		t.Fatalf("alert never resolved; state = %s, burns = %g/%g", st.State, st.ShortBurn, st.LongBurn)
	}

	// Transition history: inactive -> pending -> firing -> resolved.
	var kinds []string
	for _, tr := range st.Transitions {
		kinds = append(kinds, tr.From+">"+tr.To)
	}
	want := []string{"inactive>pending", "pending>firing", "firing>resolved"}
	if len(kinds) != len(want) {
		t.Fatalf("transitions = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s", i, kinds[i], want[i])
		}
	}

	// Each transition was journaled with the objective/severity fields.
	var alertEvents []obs.Event
	for _, e := range journal.Snapshot() {
		if e.Kind == "alert" {
			alertEvents = append(alertEvents, e)
		}
	}
	if len(alertEvents) != 3 {
		t.Fatalf("journal has %d alert events, want 3: %v", len(alertEvents), alertEvents)
	}
	if f := alertEvents[0].Fields; f["objective"] != "avail" || f["severity"] != "page" || f["to"] != StatePending {
		t.Fatalf("first journal event fields = %v", f)
	}

	// Objective status agrees with the raw counters.
	objs := eng.Objectives()
	if len(objs) != 1 {
		t.Fatalf("Objectives = %v", objs)
	}
	o := objs[0]
	if o.Good != *good || o.Total != *total {
		t.Fatalf("status counters (%g, %g) != raw (%g, %g)", o.Good, o.Total, *good, *total)
	}
	wantCompliance := *good / *total
	if o.Compliance != wantCompliance {
		t.Fatalf("compliance = %g, want %g", o.Compliance, wantCompliance)
	}
	wantConsumed := (1 - wantCompliance) / (1 - 0.9)
	if diff := o.BudgetConsumed - wantConsumed; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("budget consumed = %g, want %g", o.BudgetConsumed, wantConsumed)
	}
}

func TestEnginePendingClearsToInactive(t *testing.T) {
	// Long ForSeconds: the condition clears before the hold elapses, so
	// the alert goes pending -> inactive and never fires.
	rule := AlertRule{Severity: "page", Burn: 4, ShortSeconds: 2, LongSeconds: 4, ForSeconds: 30}
	eng, _, good, total := engineFixture(t, rule)
	store := engStore(eng)
	step := func(sec int, dGood, dTotal float64) {
		*good += dGood
		*total += dTotal
		store.Sample(ts(sec))
		eng.Evaluate(ts(sec))
	}
	sec := 0
	for ; sec < 6; sec++ {
		step(sec, 10, 10)
	}
	for ; sec < 12; sec++ {
		step(sec, 0, 10) // 100% errors, burn 10
	}
	if st := oneAlert(t, eng); st.State != StatePending {
		t.Fatalf("state = %s, want pending", st.State)
	}
	for ; sec < 30; sec++ {
		step(sec, 10, 10)
	}
	st := oneAlert(t, eng)
	if st.State != StateInactive || st.FiredCount != 0 {
		t.Fatalf("state = %s fired=%d, want inactive/0 (pending that clears never fired)", st.State, st.FiredCount)
	}
}

func TestEngineNoTrafficBurnsNothing(t *testing.T) {
	rule := AlertRule{Severity: "page", Burn: 1, ShortSeconds: 2, LongSeconds: 4}
	eng, _, _, _ := engineFixture(t, rule)
	store := engStore(eng)
	for sec := 0; sec < 10; sec++ {
		store.Sample(ts(sec))
		eng.Evaluate(ts(sec))
	}
	st := oneAlert(t, eng)
	if st.State != StateInactive || st.ShortBurn != 0 || st.LongBurn != 0 {
		t.Fatalf("idle engine: state=%s burns=%g/%g, want inactive 0/0", st.State, st.ShortBurn, st.LongBurn)
	}
	o := eng.Objectives()[0]
	if o.Compliance != 1 || o.BudgetConsumed != 0 || o.BudgetRemaining != 1 {
		t.Fatalf("idle objective: %+v", o)
	}
}

func TestBindUnknownObjective(t *testing.T) {
	store := obs.NewStore(16)
	eng, err := NewEngine(DefaultConfig(), store, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.Bind("nope", func() float64 { return 0 }, func() float64 { return 0 }, 0); err == nil {
		t.Fatalf("Bind of unknown objective succeeded")
	}
	// Unbound objectives report Bound=false and evaluate as no-ops.
	eng.Evaluate(ts(0))
	if n := len(eng.Objectives()); n != 2 {
		t.Fatalf("%d objectives, want both defaults", n)
	}
	for _, o := range eng.Objectives() {
		if o.Bound {
			t.Fatalf("objective %s claims bound", o.Name)
		}
	}
}

// engStore digs the store back out of the engine for test stepping.
func engStore(e *Engine) *obs.Store { return e.store }
