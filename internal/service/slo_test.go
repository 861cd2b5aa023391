package service

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adept/internal/obs"
	"adept/internal/sim"
	"adept/internal/slo"
)

// newSLOTestServer builds a server whose background sampler is
// disabled (SampleInterval < 0) so tests drive SLOTick with explicit
// timestamps and the burn-rate windows are deterministic.
func newSLOTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 16
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	cfg.SampleInterval = -1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func TestHealthAndReadyProbes(t *testing.T) {
	srv, ts := newSLOTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", resp.StatusCode)
	}

	var rz ReadyzResponse
	if r := getJSON(t, ts.URL+"/readyz", &rz); r.StatusCode != http.StatusOK {
		t.Fatalf("readyz while ready: %d, want 200", r.StatusCode)
	}
	if !rz.Ready || !rz.PoolOpen {
		t.Fatalf("readyz body: %+v", rz)
	}

	// Startup gating: SetReady(false) must flip /readyz to 503 while
	// /healthz (liveness) stays 200.
	srv.SetReady(false)
	if r := getJSON(t, ts.URL+"/readyz", &rz); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while not ready: %d, want 503", r.StatusCode)
	}
	if rz.Ready {
		t.Fatalf("readyz body should report ready=false: %+v", rz)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while not ready: %d, want 200", resp.StatusCode)
	}
	srv.SetReady(true)
	if r := getJSON(t, ts.URL+"/readyz", &rz); r.StatusCode != http.StatusOK {
		t.Fatalf("readyz after re-ready: %d, want 200", r.StatusCode)
	}
}

// Probes are deliberately uninstrumented: a kubelet hammering /healthz
// must not dilute the availability SLO's request counters.
func TestProbesDoNotCountTowardSLO(t *testing.T) {
	srv, ts := newSLOTestServer(t, Config{})

	before := availabilityTotal(t, srv)
	for range 5 {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		resp, err = http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if after := availabilityTotal(t, srv); after != before {
		t.Errorf("probe traffic moved the availability total: %v -> %v", before, after)
	}
}

// availabilityTotal reads the availability objective's total counter
// straight from the engine (no HTTP round trip, which would itself
// count).
func availabilityTotal(t *testing.T, srv *Server) float64 {
	t.Helper()
	for _, o := range srv.sloEng.Objectives() {
		if o.Type == slo.TypeAvailability {
			return o.Total
		}
	}
	t.Fatal("no availability objective bound")
	return 0
}

func TestSLOEndpointCountersAgree(t *testing.T) {
	_, ts := newSLOTestServer(t, Config{})

	// Real traffic: successful plans plus guaranteed 404s.
	for range 3 {
		resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: testPlatform(10), DgemmN: 310})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan: %d: %s", resp.StatusCode, body)
		}
	}
	for range 2 {
		resp, err := http.Get(ts.URL + "/v1/platforms/no-such-platform")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("expected 404, got %d", resp.StatusCode)
		}
	}

	var sr SLOResponse
	if r := getJSON(t, ts.URL+"/v1/slo", &sr); r.StatusCode != http.StatusOK {
		t.Fatalf("slo: %d", r.StatusCode)
	}
	if len(sr.Objectives) == 0 {
		t.Fatal("no objectives in /v1/slo")
	}

	byName := make(map[string]slo.ObjectiveStatus, len(sr.Objectives))
	for _, o := range sr.Objectives {
		if !o.Bound {
			t.Errorf("objective %q not bound", o.Name)
		}
		byName[o.Name] = o
	}

	avail, ok := byName["availability"]
	if !ok {
		t.Fatal("default config lost its availability objective")
	}
	if avail.Total < 5 {
		t.Errorf("availability total %v, want >= 5 (3 plans + 2 errors)", avail.Total)
	}
	if got := avail.Total - avail.Good; got != 2 {
		t.Errorf("availability errors = %v, want exactly the 2 injected 404s", got)
	}
	// The reported derived numbers must be arithmetic over good/total,
	// not an independent estimate.
	if want := avail.Good / avail.Total; math.Abs(avail.Compliance-want) > 1e-9 {
		t.Errorf("compliance %v != good/total %v", avail.Compliance, want)
	}
	if want := 1 - avail.Target; math.Abs(avail.ErrorBudget-want) > 1e-9 {
		t.Errorf("error budget %v != 1-target %v", avail.ErrorBudget, want)
	}
	if want := (1 - avail.Compliance) / (1 - avail.Target); math.Abs(avail.BudgetConsumed-want) > 1e-9 {
		t.Errorf("budget consumed %v, want %v", avail.BudgetConsumed, want)
	}
	if want := 1 - avail.BudgetConsumed; math.Abs(avail.BudgetRemaining-want) > 1e-9 {
		t.Errorf("budget remaining %v, want %v", avail.BudgetRemaining, want)
	}

	lat, ok := byName["plan-latency"]
	if !ok {
		t.Fatal("default config lost its plan-latency objective")
	}
	if lat.ThresholdMillis <= 0 {
		t.Errorf("latency objective has no effective threshold: %+v", lat)
	}
	if lat.Total < 3 {
		t.Errorf("latency total %v, want >= 3 plan requests", lat.Total)
	}
	if lat.Good > lat.Total {
		t.Errorf("latency good %v exceeds total %v", lat.Good, lat.Total)
	}
}

func TestAlertLifecycleOverHTTP(t *testing.T) {
	cfg := &slo.Config{Objectives: []slo.ObjectiveSpec{{
		Name:   "availability",
		Type:   slo.TypeAvailability,
		Target: 0.5,
		Alerts: []slo.AlertRule{
			{Severity: "page", Burn: 1, ShortSeconds: 5, LongSeconds: 10},
			{Severity: "ticket", Burn: 1, ShortSeconds: 5, LongSeconds: 10, ForSeconds: 5},
		},
	}}}
	srv, ts := newSLOTestServer(t, Config{SLO: cfg})

	base := time.Now()
	srv.SLOTick(base)

	errorBurst := func(n int) {
		t.Helper()
		for range n {
			resp, err := http.Get(ts.URL + "/v1/platforms/no-such-platform")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}

	// Window 1: pure errors. burn = 1/(1-0.5) = 2 over both windows,
	// so the zero-hold page fires immediately and the ticket goes
	// pending.
	errorBurst(4)
	srv.SLOTick(base.Add(5 * time.Second))
	assertAlertStates(t, ts, map[string]string{
		"availability/page":   slo.StateFiring,
		"availability/ticket": slo.StatePending,
	})

	// Window 2: errors persist, the ticket's 5s hold elapses.
	errorBurst(4)
	srv.SLOTick(base.Add(10 * time.Second))
	assertAlertStates(t, ts, map[string]string{
		"availability/page":   slo.StateFiring,
		"availability/ticket": slo.StateFiring,
	})

	// Recovery: only successful traffic, evaluated far enough out that
	// the trailing windows no longer reach the error samples.
	for range 4 {
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	srv.SLOTick(base.Add(40 * time.Second))
	alerts := assertAlertStates(t, ts, map[string]string{
		"availability/page":   slo.StateResolved,
		"availability/ticket": slo.StateResolved,
	})

	for _, a := range alerts {
		if a.FiredCount != 1 {
			t.Errorf("%s fired %d times, want 1", a.Name, a.FiredCount)
		}
		var path []string
		for _, tr := range a.Transitions {
			path = append(path, tr.To)
		}
		want := []string{slo.StatePending, slo.StateFiring, slo.StateResolved}
		if fmt.Sprint(path) != fmt.Sprint(want) {
			t.Errorf("%s transition path %v, want %v", a.Name, path, want)
		}
	}

	// Every transition must have been journalled as an "alert" event.
	var ev AutonomicEventsResponse
	getJSON(t, ts.URL+"/v1/autonomic/events", &ev)
	alertEvents := 0
	for _, e := range ev.Events {
		if e.Kind == "alert" {
			alertEvents++
		}
	}
	if alertEvents != 6 {
		t.Errorf("journalled %d alert events, want 6 (3 per rule)", alertEvents)
	}
}

// assertAlertStates fetches /v1/alerts and checks each named rule's
// state, returning the full response for further inspection.
func assertAlertStates(t *testing.T, ts *httptest.Server, want map[string]string) []slo.AlertStatus {
	t.Helper()
	var ar AlertsResponse
	if r := getJSON(t, ts.URL+"/v1/alerts", &ar); r.StatusCode != http.StatusOK {
		t.Fatalf("alerts: %d", r.StatusCode)
	}
	got := make(map[string]string, len(ar.Alerts))
	for _, a := range ar.Alerts {
		got[a.Name] = a.State
	}
	for name, state := range want {
		if got[name] != state {
			t.Errorf("alert %s state %q, want %q (all: %v)", name, got[name], state, got)
		}
	}
	return ar.Alerts
}

func TestIncidentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	if r := getJSON(t, ts.URL+"/v1/autonomic/incidents", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("incidents without session: %d, want 404", r.StatusCode)
	}

	start := AutonomicRequest{
		PlanRequest:  PlanRequest{Platform: autonomicPlatform(), Wapp: 10},
		Backend:      "sim",
		Clients:      12,
		Cycles:       30,
		Drift:        []sim.LoadPhase{{At: 40, Factors: map[string]float64{"s1": 2}}},
		CrashWindows: -1,
	}
	resp, body := postJSON(t, ts.URL+"/v1/autonomic/start", start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d: %s", resp.StatusCode, body)
	}
	var st AutonomicStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/autonomic/status", &st)
		if st.Done || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !st.Done {
		t.Fatal("sim session did not finish")
	}

	var ir IncidentsResponse
	if r := getJSON(t, ts.URL+"/v1/autonomic/incidents", &ir); r.StatusCode != http.StatusOK {
		t.Fatalf("incidents: %d", r.StatusCode)
	}
	if len(ir.Incidents) == 0 {
		t.Fatal("a session that adapted recorded no incidents")
	}
	resolved := 0
	for _, inc := range ir.Incidents {
		if inc.ID == 0 {
			t.Errorf("incident without id: %+v", inc)
		}
		if len(inc.Reasons) == 0 {
			t.Errorf("incident %d has no reasons", inc.ID)
		}
		if inc.DetectedAt.IsZero() {
			t.Errorf("incident %d has no detection timestamp", inc.ID)
		}
		if inc.Resolved {
			resolved++
			if inc.RecoveredAt.IsZero() {
				t.Errorf("resolved incident %d has no recovery timestamp", inc.ID)
			}
			if inc.MTTRSeconds < 0 {
				t.Errorf("incident %d negative MTTR %v", inc.ID, inc.MTTRSeconds)
			}
			if inc.RecoveredAt.Before(inc.DetectedAt) {
				t.Errorf("incident %d recovered before detected", inc.ID)
			}
		}
	}
	if ir.Summary.Resolved != resolved {
		t.Errorf("summary resolved %d, counted %d", ir.Summary.Resolved, resolved)
	}
	if ir.Summary.Open != len(ir.Incidents)-resolved {
		t.Errorf("summary open %d, counted %d", ir.Summary.Open, len(ir.Incidents)-resolved)
	}
}

func TestEventsSinceTruncated(t *testing.T) {
	srv, ts := newSLOTestServer(t, Config{})

	const last = journalCapacity + 4
	for i := 1; i <= last; i++ {
		srv.journal.Append("test", fmt.Sprintf("event %d", i), nil)
	}
	// Four more appended than the ring holds: seqs 5..last retained,
	// 1..4 evicted.

	fetch := func(since uint64) AutonomicEventsResponse {
		t.Helper()
		var ev AutonomicEventsResponse
		r := getJSON(t, ts.URL+fmt.Sprintf("/v1/autonomic/events?since=%d", since), &ev)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("events?since=%d: %d", since, r.StatusCode)
		}
		return ev
	}

	// Stale cursor: the ring wrapped past it, so the client must see
	// the truncation marker along with the oldest retained events.
	ev := fetch(1)
	if !ev.Truncated {
		t.Error("since=1 with seqs 2..4 evicted: truncated not set")
	}
	if len(ev.Events) != journalCapacity || ev.Events[0].Seq != 5 {
		t.Fatalf("since=1: got %d events starting at %d, want %d starting at 5", len(ev.Events), firstSeq(ev.Events), journalCapacity)
	}

	// Cursor exactly at the eviction edge: nothing was missed.
	ev = fetch(4)
	if ev.Truncated {
		t.Error("since=4: no gap before seq 5, truncated should be false")
	}
	if len(ev.Events) != journalCapacity {
		t.Errorf("since=4: %d events, want %d", len(ev.Events), journalCapacity)
	}

	// Recent cursor: a normal incremental poll.
	ev = fetch(last - 2)
	if ev.Truncated || len(ev.Events) != 2 || ev.Events[0].Seq != last-1 {
		t.Errorf("since=%d: truncated=%v events=%d first=%d, want false/2/%d", last-2, ev.Truncated, len(ev.Events), firstSeq(ev.Events), last-1)
	}

	// Fully caught up.
	ev = fetch(last)
	if ev.Truncated || len(ev.Events) != 0 {
		t.Errorf("since=%d: truncated=%v events=%d, want false/0", last, ev.Truncated, len(ev.Events))
	}
	if ev.Total != last {
		t.Errorf("total %d, want %d", ev.Total, last)
	}

	// The unfiltered snapshot never reports truncation (there is no
	// cursor to have fallen behind).
	var snap AutonomicEventsResponse
	getJSON(t, ts.URL+"/v1/autonomic/events", &snap)
	if snap.Truncated {
		t.Error("snapshot without ?since= reports truncated")
	}
}

func firstSeq(events []obs.Event) uint64 {
	if len(events) == 0 {
		return 0
	}
	return events[0].Seq
}
