package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"adept/internal/scenario"
	"adept/internal/sim"
)

// TestPlanTraceRoundTrip requests a portfolio plan with tracing on and
// checks the trace that comes back: service phases recorded, per-variant
// race spans present, and the trace's winner naming the same variant the
// returned plan credits.
func TestPlanTraceRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{
		Platform: testPlatform(12),
		DgemmN:   310,
		Planner:  "portfolio",
		Trace:    true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Trace == nil {
		t.Fatal("trace requested but response carries none")
	}
	if len(pr.Trace.Phases) == 0 {
		t.Fatal("trace has no phases")
	}
	phases := make(map[string]bool)
	for _, p := range pr.Trace.Phases {
		if p.DurationMS < 0 {
			t.Errorf("phase %s has negative duration %g", p.Name, p.DurationMS)
		}
		phases[p.Name] = true
	}
	for _, want := range []string{"resolve", "cache_lookup", "plan", "render", "race"} {
		if !phases[want] {
			t.Errorf("trace is missing phase %q (have %v)", want, pr.Trace.Phases)
		}
	}
	if pr.Trace.Winner == "" {
		t.Fatal("portfolio trace has no winner")
	}
	if want := "portfolio:" + pr.Trace.Winner; pr.Planner != want {
		t.Errorf("plan credited to %q, trace winner implies %q", pr.Planner, want)
	}
	if len(pr.Trace.Variants) == 0 {
		t.Fatal("portfolio trace has no variant spans")
	}
	winners := 0
	for _, v := range pr.Trace.Variants {
		if v.Winner {
			winners++
			if v.Name != pr.Trace.Winner {
				t.Errorf("variant %q flagged winner, trace says %q", v.Name, pr.Trace.Winner)
			}
		}
	}
	if winners != 1 {
		t.Errorf("want exactly one winning variant, got %d", winners)
	}
	if pr.Trace.RequestID == "" {
		t.Error("trace has no request ID")
	}
}

// TestPlanElapsedCoversResolve: elapsed_ms is the whole of what answering
// the request cost, so it can be no smaller than the phases its own trace
// reports, the ones before the planner included: the clock starts on
// entry to plan, ahead of resolve (which addresses the request) and the
// cache look-up.
func TestPlanElapsedCoversResolve(t *testing.T) {
	_, ts := newTestServer(t)
	req := PlanRequest{
		Scenario: &scenario.Spec{Family: scenario.ClusterGrid, N: 20000, Seed: 7, PowerLevels: 8},
		DgemmN:   1000,
		Trace:    true,
	}
	for _, wantCached := range []bool{false, true} {
		resp, data := postJSON(t, ts.URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var pr PlanResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Cached != wantCached || pr.Trace == nil {
			t.Fatalf("cached = %v (want %v), trace = %v", pr.Cached, wantCached, pr.Trace)
		}
		var front float64
		for _, p := range pr.Trace.Phases {
			if p.Name == "resolve" || p.Name == "cache_lookup" {
				front += p.DurationMS
			}
		}
		if front == 0 {
			t.Fatalf("trace has no resolve/cache_lookup time: %+v", pr.Trace.Phases)
		}
		if pr.ElapsedMS < front {
			t.Errorf("cached=%v: elapsed_ms = %.3f, less than its own resolve + cache_lookup phases (%.3f ms)",
				wantCached, pr.ElapsedMS, front)
		}
	}
}

// TestPlanTraceRequestID checks request-ID correlation: the response
// always carries X-Request-ID, a caller-supplied ID is honoured, and the
// trace embeds the same ID.
func TestPlanTraceRequestID(t *testing.T) {
	_, ts := newTestServer(t)

	body, _ := json.Marshal(PlanRequest{Platform: testPlatform(8), DgemmN: 310, Trace: true})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "corr-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "corr-42" {
		t.Errorf("caller-supplied request ID not echoed: got %q", got)
	}
	var pr PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Trace == nil || pr.Trace.RequestID != "corr-42" {
		t.Errorf("trace request ID = %+v, want corr-42", pr.Trace)
	}

	// Without a caller ID the daemon mints one.
	resp2, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: testPlatform(8), DgemmN: 310})
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID minted for anonymous request")
	}
}

// TestPlanTraceOffOmitted checks the default path: no trace in the
// response body at all (omitempty), cached or not.
func TestPlanTraceOffOmitted(t *testing.T) {
	_, ts := newTestServer(t)
	req := PlanRequest{Platform: testPlatform(8), DgemmN: 310}
	for i := 0; i < 2; i++ { // fresh, then cached
		resp, body := postJSON(t, ts.URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if strings.Contains(string(body), `"trace"`) {
			t.Fatalf("untraced response %d carries a trace: %s", i, body)
		}
	}
}

// TestPlanTraceCacheKeyUnaffected: trace is a response option, not plan
// input — a traced request must hit the cache entry a previous untraced
// request populated (and vice versa).
func TestPlanTraceCacheKeyUnaffected(t *testing.T) {
	_, ts := newTestServer(t)
	plain := PlanRequest{Platform: testPlatform(8), DgemmN: 310}
	traced := plain
	traced.Trace = true

	postJSON(t, ts.URL+"/v1/plan", plain)
	_, body := postJSON(t, ts.URL+"/v1/plan", traced)
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Cached {
		t.Error("traced request missed the cache entry its untraced twin created")
	}
	if pr.Trace == nil {
		t.Error("cached hit dropped the requested trace")
	}
}

// TestPlanTraceOffAllocations guards the zero-overhead claim on the hot
// path: on a cached hit the trace-off request must not allocate more
// than the traced variant — and the traced variant must actually pay for
// its recorder, proving the two paths diverge where they should.
func TestPlanTraceOffAllocations(t *testing.T) {
	srv, ts := newTestServer(t)
	warm := PlanRequest{Platform: testPlatform(8), DgemmN: 310}
	postJSON(t, ts.URL+"/v1/plan", warm) // populate the cache

	run := func(trace bool) float64 {
		pr := warm
		pr.Trace = trace
		return testing.AllocsPerRun(200, func() {
			r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
			req := pr
			if _, _, err := srv.plan(r, &req); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, on := run(false), run(true)
	if off >= on {
		t.Errorf("cached-hit allocations: trace-off %g >= trace-on %g — tracing is not free to enable or the off path regressed", off, on)
	}
}

// TestMetricsReportErrors exercises the top-level error accounting in
// the JSON report: a planning failure (unknown platform, 404) must show
// up in both the endpoint slice and the new top-level total.
func TestMetricsReportErrors(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: testPlatform(8), DgemmN: 310})
	resp, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{PlatformName: "no-such-platform"})
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown platform: status %d, want 4xx", resp.StatusCode)
	}

	var rep Report
	getJSON(t, ts.URL+"/v1/metrics", &rep)
	if rep.Requests < 2 {
		t.Errorf("requests = %d, want >= 2", rep.Requests)
	}
	if rep.Errors == 0 {
		t.Error("top-level errors total missed the failed plan")
	}
	ep, ok := rep.Endpoints["plan"]
	if !ok {
		t.Fatalf("no plan endpoint slice in %+v", rep.Endpoints)
	}
	if ep.Errors == 0 {
		t.Error("plan endpoint slice missed the failed plan")
	}
	if rep.Errors < ep.Errors {
		t.Errorf("top-level errors %d < plan endpoint errors %d", rep.Errors, ep.Errors)
	}
}

// expositionLine matches one Prometheus text-format series line.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestPromExposition scrapes GET /metrics after real traffic and checks
// the exposition: correct content type, every line well formed, HELP and
// TYPE present for the served families, and the daemon counters visible
// with plausible values.
func TestPromExposition(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: testPlatform(8), DgemmN: 310})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text/plain; version=0.0.4", ct)
	}

	values := make(map[string]float64)
	helps := make(map[string]bool)
	types := make(map[string]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case text == "":
			t.Errorf("line %d: blank line in exposition", line)
		case strings.HasPrefix(text, "# HELP "):
			helps[strings.Fields(text)[2]] = true
		case strings.HasPrefix(text, "# TYPE "):
			types[strings.Fields(text)[2]] = true
		case strings.HasPrefix(text, "#"):
			t.Errorf("line %d: unknown comment form %q", line, text)
		default:
			if !expositionLine.MatchString(text) {
				t.Errorf("line %d: malformed series line %q", line, text)
				continue
			}
			fields := strings.Fields(text)
			name := fields[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			var v float64
			fmt.Sscanf(fields[1], "%g", &v)
			values[name] += v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, fam := range []string{
		"adeptd_requests_total",
		"adeptd_request_duration_seconds",
		"adeptd_plans_executed_total",
		"adeptd_cache_hits_total",
		"adeptd_queue_depth",
		"adeptd_uptime_seconds",
		"go_goroutines",
	} {
		if !helps[fam] {
			t.Errorf("family %s has no HELP line", fam)
		}
		if !types[fam] {
			t.Errorf("family %s has no TYPE line", fam)
		}
	}
	if values["adeptd_plans_executed_total"] < 1 {
		t.Errorf("adeptd_plans_executed_total = %g after a fresh plan, want >= 1", values["adeptd_plans_executed_total"])
	}
	if values["adeptd_requests_total"] < 1 {
		t.Errorf("adeptd_requests_total = %g, want >= 1", values["adeptd_requests_total"])
	}
	if values["go_goroutines"] <= 0 {
		t.Errorf("go_goroutines = %g, want positive", values["go_goroutines"])
	}
}

// TestAutonomicEventsEndpoint runs a bounded sim session and reads the
// MAPE-K decision journal back: detect and patch events must appear, the
// since cursor must page, and a bad cursor must 400.
func TestAutonomicEventsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// Empty journal: valid JSON with a non-null empty list.
	var ev AutonomicEventsResponse
	getJSON(t, ts.URL+"/v1/autonomic/events", &ev)
	if ev.Events == nil || len(ev.Events) != 0 || ev.Total != 0 {
		t.Fatalf("fresh journal: %+v", ev)
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
		t.Fatalf("sim session did not finish")
	}

	getJSON(t, ts.URL+"/v1/autonomic/events", &ev)
	if len(ev.Events) == 0 {
		t.Fatal("no events journalled by a session that adapted")
	}
	if ev.Total < uint64(len(ev.Events)) {
		t.Errorf("total %d < retained %d", ev.Total, len(ev.Events))
	}
	kinds := make(map[string]int)
	lastSeq := uint64(0)
	for _, e := range ev.Events {
		kinds[e.Kind]++
		if e.Seq <= lastSeq {
			t.Errorf("event seqs not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.At.IsZero() {
			t.Errorf("event %d has no timestamp", e.Seq)
		}
	}
	if kinds["detect"] == 0 {
		t.Errorf("no detect events in %v", kinds)
	}
	if kinds["replan"] == 0 {
		t.Errorf("no replan events in %v", kinds)
	}
	if kinds["patch"] == 0 {
		t.Errorf("no patch events in %v", kinds)
	}

	// The since cursor pages: everything strictly after the mid seq.
	mid := ev.Events[len(ev.Events)/2].Seq
	var page AutonomicEventsResponse
	getJSON(t, fmt.Sprintf("%s/v1/autonomic/events?since=%d", ts.URL, mid), &page)
	for _, e := range page.Events {
		if e.Seq <= mid {
			t.Errorf("since=%d returned seq %d", mid, e.Seq)
		}
	}
	if got, want := len(page.Events), len(ev.Events)-(len(ev.Events)/2+1); got < want {
		t.Errorf("since=%d returned %d events, want >= %d", mid, got, want)
	}

	if r, err := http.Get(ts.URL + "/v1/autonomic/events?since=nope"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("bad since: status %d, want 400", r.StatusCode)
		}
	}

	postJSON(t, ts.URL+"/v1/autonomic/stop", struct{}{})
}
