package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adept/internal/scenario"
	"adept/internal/sim"
)

// entryPoints are the four ways into Server.plan, each wrapping the same
// PlanRequest in its own body. A batch answers for its items as a whole, so
// its status is the all-failed one (422, or 429 when every item was shed)
// and the item carries the message the other three answer with.
var entryPoints = []struct {
	endpoint, path string
	body           func(PlanRequest) any
}{
	{"plan", "/v1/plan", func(pr PlanRequest) any { return pr }},
	{"plan_batch", "/v1/plan/batch", func(pr PlanRequest) any { return BatchRequest{Requests: []PlanRequest{pr}} }},
	{"deploy", "/v1/deploy", func(pr PlanRequest) any { return DeployRequest{PlanRequest: pr} }},
	{"autonomic_start", "/v1/autonomic/start", func(pr PlanRequest) any { return AutonomicRequest{PlanRequest: pr, Backend: "sim"} }},
}

// serve drives one request through the daemon's handler, no socket between.
func serve(t *testing.T, srv *Server, ctx context.Context, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)).WithContext(ctx))
	return rec
}

// TestOneStatusPath: a planning failure is graded once, by planStatus,
// whichever entry point it came in through — so every class of failure
// answers the same status and the same message on all four.
func TestOneStatusPath(t *testing.T) {
	idle, _ := newTestServer(t)
	// busy has its one worker blocked and room to queue: a request waits
	// until its deadline fires or its client walks away.
	busy, err := New(Config{Workers: 1, QueueDepth: 16, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(busy.Close)
	t.Cleanup(blockPoolWorker(t, busy.pool))
	// full has its one worker blocked and no queue at all (Config floors
	// QueueDepth at its default, so the pool is swapped in directly).
	full, err := New(Config{Workers: 1, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(full.Close)
	full.pool.Close()
	if full.pool, err = NewPool(1, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(blockPoolWorker(t, full.pool))

	dup := testPlatform(6)
	dup.Nodes[3].Name = dup.Nodes[2].Name
	for _, tc := range []struct {
		name   string
		srv    *Server
		pr     PlanRequest
		cancel bool // the client walks away once its job is queued
		want   int
	}{
		{"resolve fault", idle, PlanRequest{Platform: testPlatform(6), Planner: "simulated-annealing"}, false, http.StatusBadRequest},
		{"miss-path fault", idle, PlanRequest{Platform: dup}, false, http.StatusBadRequest},
		{"planner failure", idle, PlanRequest{Platform: testPlatform(12), Planner: "exhaustive"}, false, http.StatusUnprocessableEntity},
		{"shed", full, PlanRequest{Platform: testPlatform(6)}, false, http.StatusTooManyRequests},
		{"deadline", busy, PlanRequest{Platform: testPlatform(6), TimeoutMillis: 30}, false, http.StatusGatewayTimeout},
		{"client cancel", busy, PlanRequest{Platform: testPlatform(6)}, true, statusClientClosedRequest},
	} {
		var message string
		for _, ep := range entryPoints {
			ctx, cancel := context.WithCancel(context.Background())
			if tc.cancel {
				go func() {
					for deadline := time.Now().Add(5 * time.Second); tc.srv.pool.QueueDepth() == 0 && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
			}
			_, errorsBefore := tc.srv.metrics.EndpointTotals(ep.endpoint)
			rec := serve(t, tc.srv, ctx, ep.path, ep.body(tc.pr))
			cancel()

			want, got := tc.want, ""
			if ep.endpoint == "plan_batch" {
				if want != http.StatusTooManyRequests {
					want = http.StatusUnprocessableEntity
				}
				var out BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Items) != 1 {
					t.Fatalf("%s via %s: body %s (%v)", tc.name, ep.path, rec.Body, err)
				}
				got = out.Items[0].Error
			} else {
				var out apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Fatalf("%s via %s: body %s (%v)", tc.name, ep.path, rec.Body, err)
				}
				got = out.Error
			}
			if rec.Code != want {
				t.Errorf("%s via %s: status %d, want %d: %s", tc.name, ep.path, rec.Code, want, rec.Body)
			}
			if message == "" {
				message = got
			}
			if got == "" || got != message {
				t.Errorf("%s via %s: error %q, /v1/plan said %q", tc.name, ep.path, got, message)
			}
			if retry := rec.Header().Get("Retry-After"); (retry == "1") != (want == http.StatusTooManyRequests) {
				t.Errorf("%s via %s: Retry-After %q on a %d", tc.name, ep.path, retry, want)
			}
			// A 499 is for the logs: the client is gone, and its impatience
			// must not count against the daemon's error rate.
			_, errorsAfter := tc.srv.metrics.EndpointTotals(ep.endpoint)
			if counted := errorsAfter != errorsBefore; counted == (rec.Code == statusClientClosedRequest) {
				t.Errorf("%s via %s: status %d, counted as an error: %v", tc.name, ep.path, rec.Code, counted)
			}
		}
	}
	for _, srv := range []*Server{idle, busy, full} {
		if srv.auto != nil || srv.autoStarting.Load() {
			t.Error("a failed autonomic start left a session or a reservation behind")
		}
	}
}

// TestUnknownTransport: internal/deploy alone knows the transports by name,
// so both handlers that launch refuse an unknown one with its words.
func TestUnknownTransport(t *testing.T) {
	srv, _ := newTestServer(t)
	pr := PlanRequest{Platform: autonomicPlatform(), Wapp: 10}
	dep := serve(t, srv, context.Background(), "/v1/deploy", DeployRequest{PlanRequest: pr, Transport: "carrier-pigeon"})
	auto := serve(t, srv, context.Background(), "/v1/autonomic/start", AutonomicRequest{PlanRequest: pr, Transport: "carrier-pigeon"})
	if dep.Code != http.StatusBadRequest || auto.Code != http.StatusBadRequest {
		t.Errorf("unknown transport: deploy %d, autonomic start %d, want 400 from both", dep.Code, auto.Code)
	}
	if dep.Body.String() != auto.Body.String() || !bytes.Contains(dep.Body.Bytes(), []byte(`carrier-pigeon`)) {
		t.Errorf("deploy said %s, autonomic start said %s", dep.Body, auto.Body)
	}
}

// TestAutonomicStartFromScenario: "scenario" names the platform on
// /v1/autonomic/start as on every other endpoint (the drift schedule has
// its own key), so a session can be started on a generated platform.
func TestAutonomicStartFromScenario(t *testing.T) {
	_, ts := newTestServer(t)
	spec := scenario.Spec{Family: scenario.Bimodal, N: 6, Seed: 1}
	resp, body := postJSON(t, ts.URL+"/v1/autonomic/start", AutonomicRequest{
		PlanRequest: PlanRequest{Scenario: &spec, Wapp: 5},
		Backend:     "sim", Clients: 4, Cycles: 3, CrashWindows: -1,
		Drift: []sim.LoadPhase{{At: 10, AddClients: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: status %d: %s", resp.StatusCode, body)
	}
	var started struct {
		Plan PlanResponse `json:"plan"`
	}
	if err := json.Unmarshal(body, &started); err != nil {
		t.Fatal(err)
	}
	if started.Plan.PoolNodes != spec.N {
		t.Errorf("planned over %d nodes, the spec generates %d", started.Plan.PoolNodes, spec.N)
	}
	var st AutonomicStatus
	waitUntil(t, "the sim session to finish", func() bool {
		getJSON(t, ts.URL+"/v1/autonomic/status", &st)
		return st.Done
	})
	if st.RunErr != "" {
		t.Errorf("control loop over a generated platform: %s", st.RunErr)
	}
}
