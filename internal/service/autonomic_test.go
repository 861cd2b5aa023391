package service

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"adept/internal/platform"
	"adept/internal/sim"
)

// autonomicPlatform is a small fixed pool with a clearly most-powerful
// server to drift.
func autonomicPlatform() *platform.Platform {
	return &platform.Platform{
		Name:      "auto-svc",
		Bandwidth: 100,
		Nodes: []platform.Node{
			{Name: "n0", Power: 400},
			{Name: "s1", Power: 200},
			{Name: "s2", Power: 150},
			{Name: "s3", Power: 150},
			{Name: "s4", Power: 100},
		},
	}
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestAutonomicSimSession drives the full daemon surface: start a
// sim-backed session with a scheduled 2x drift on the strongest server,
// let the loop run its cycles, and read the adaptation history back from
// the status endpoint.
func TestAutonomicSimSession(t *testing.T) {
	_, ts := newTestServer(t)

	start := AutonomicRequest{
		PlanRequest: PlanRequest{Platform: autonomicPlatform(), Wapp: 10},
		Backend:     "sim",
		Clients:     12,
		Cycles:      30,
		Drift:       []sim.LoadPhase{{At: 40, Factors: map[string]float64{"s1": 2}}},
		// Starved-but-alive servers are expected here; crash detection off.
		CrashWindows: -1,
	}
	resp, body := postJSON(t, ts.URL+"/v1/autonomic/start", start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d: %s", resp.StatusCode, body)
	}

	// A second session must be refused while the first runs (or report the
	// first one done — the sim loop is fast).
	resp2, _ := postJSON(t, ts.URL+"/v1/autonomic/start", start)
	if resp2.StatusCode != http.StatusConflict && resp2.StatusCode != http.StatusOK {
		t.Fatalf("concurrent start: unexpected status %d", resp2.StatusCode)
	}

	// The sim loop finishes its 30 cycles almost immediately.
	var st AutonomicStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		r := getJSON(t, ts.URL+"/v1/autonomic/status", &st)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status: %d", r.StatusCode)
		}
		if st.Done || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !st.Done {
		t.Fatalf("sim session did not finish: %+v", st)
	}
	if st.RunErr != "" {
		t.Fatalf("control loop error: %s", st.RunErr)
	}
	if len(st.Status.Adaptations) == 0 {
		t.Fatalf("no adaptations reported: %+v", st.Status)
	}
	if st.Status.PatchOpsApplied == 0 || st.Status.PatchOpsApplied >= st.Status.Elements {
		t.Errorf("patch ops %d not in (0, %d)", st.Status.PatchOpsApplied, st.Status.Elements)
	}
	if st.Status.FullRedeploys != 0 {
		t.Errorf("sim session fell back to redeploys: %+v", st.Status)
	}

	// Stop returns the final status and frees the slot.
	respStop, stopBody := postJSON(t, ts.URL+"/v1/autonomic/stop", struct{}{})
	if respStop.StatusCode != http.StatusOK {
		t.Fatalf("stop: %d: %s", respStop.StatusCode, stopBody)
	}
	if r := getJSON(t, ts.URL+"/v1/autonomic/status", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("status after stop: %d, want 404", r.StatusCode)
	}
}

// TestAutonomicLiveSessionInject starts a live-backend session, injects
// drift through the API, and stops it again.
func TestAutonomicLiveSessionInject(t *testing.T) {
	_, ts := newTestServer(t)

	start := AutonomicRequest{
		PlanRequest:  PlanRequest{Platform: autonomicPlatform(), Wapp: 10},
		Backend:      "live",
		Clients:      4,
		WindowMillis: 200,
		CrashWindows: -1,
	}
	resp, body := postJSON(t, ts.URL+"/v1/autonomic/start", start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d: %s", resp.StatusCode, body)
	}
	var started struct {
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(body, &started); err != nil || started.Backend != "live" {
		t.Fatalf("start response: %s (%v)", body, err)
	}

	respInj, injBody := postJSON(t, ts.URL+"/v1/autonomic/inject", InjectRequest{Server: "s1", Factor: 2})
	if respInj.StatusCode != http.StatusOK {
		t.Fatalf("inject: %d: %s", respInj.StatusCode, injBody)
	}
	if respInj, _ := postJSON(t, ts.URL+"/v1/autonomic/inject", InjectRequest{Server: "ghost", Factor: 2}); respInj.StatusCode != http.StatusBadRequest {
		t.Errorf("inject unknown server: %d, want 400", respInj.StatusCode)
	}

	var st AutonomicStatus
	getJSON(t, ts.URL+"/v1/autonomic/status", &st)
	if st.Backend != "live" || st.Done {
		t.Fatalf("unexpected live status: %+v", st)
	}

	respStop, stopBody := postJSON(t, ts.URL+"/v1/autonomic/stop", struct{}{})
	if respStop.StatusCode != http.StatusOK {
		t.Fatalf("stop: %d: %s", respStop.StatusCode, stopBody)
	}
}

func TestAutonomicErrors(t *testing.T) {
	_, ts := newTestServer(t)
	if r, _ := postJSON(t, ts.URL+"/v1/autonomic/stop", struct{}{}); r.StatusCode != http.StatusNotFound {
		t.Errorf("stop without session: %d, want 404", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/v1/autonomic/status", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("status without session: %d, want 404", r.StatusCode)
	}
	if r, _ := postJSON(t, ts.URL+"/v1/autonomic/inject", InjectRequest{Server: "x", Factor: 2}); r.StatusCode != http.StatusNotFound {
		t.Errorf("inject without session: %d, want 404", r.StatusCode)
	}
	bad := AutonomicRequest{
		PlanRequest: PlanRequest{Platform: autonomicPlatform(), Wapp: 10},
		Backend:     "quantum",
	}
	if r, _ := postJSON(t, ts.URL+"/v1/autonomic/start", bad); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown backend: %d, want 400", r.StatusCode)
	}
	if r, _ := postJSON(t, ts.URL+"/v1/autonomic/start", AutonomicRequest{Backend: "sim"}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("missing platform: %d, want 400", r.StatusCode)
	}
}
