package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"adept/internal/scenario"
)

// TestWriteJSONUnencodableIs500: a value that does not encode — an
// infinity — is answered 500 with the usual error body, not with the
// status it was meant to carry and an empty body. A value that does encode
// is written byte for byte as a fresh indenting encoder writes it, however
// many bodies the kept encoder wrote before.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"rho": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("body %q is not an error body (%v)", rec.Body.String(), err)
	}

	for _, v := range []any{
		PlanResponse{Planner: "heuristic", Rho: 1.5, XML: "<deployment a=\"&\">\n</deployment>\n"},
		map[string]any{"deleted": "p", "version": 3},
		apiError{Error: "x"},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusAccepted, v)
		if rec.Code != http.StatusAccepted || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("status %d, body\n%s\nwant 202 and\n%s", rec.Code, rec.Body.Bytes(), want.Bytes())
		}
	}
}

// answer is what TestJobMemoryNeverLeaksIntoAnswers compares of a plan
// answer: the digest of its XML, ρ's bits and the pool size.
type answer struct {
	xml       [sha256.Size]byte
	rho       uint64
	poolNodes int
}

func answerOf(t *testing.T, path string, rec *httptest.ResponseRecorder) answer {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		return answer{}
	}
	resp := new(PlanResponse)
	if path == "/v1/deploy" {
		var dr DeployResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil || dr.Plan == nil {
			t.Errorf("%s: %v: %s", path, err, rec.Body.String())
			return answer{}
		}
		resp = dr.Plan
	} else if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
		t.Errorf("%s: %v", path, err)
		return answer{}
	}
	return answer{xml: sha256.Sum256([]byte(resp.XML)), rho: math.Float64bits(resp.Rho), poolNodes: resp.PoolNodes}
}

// TestJobMemoryNeverLeaksIntoAnswers: a job generates its pool, deals it
// and renders its plan in memory the previous job left (Server.jobs), and
// no answer carries anything of another job's. Cold misses with distinct
// seeds — class-planned above the class floor, planned node by node below
// it, one portfolio — no_cache re-plans of the same bodies and /v1/deploy
// runs, all at once on one server, must each answer what a fresh server,
// whose first job it is, answers the same body: the same XML, ρ bit for
// bit and the same pool size. Under -race it is also the probe that no two
// jobs ever hold one set of memory.
func TestJobMemoryNeverLeaksIntoAnswers(t *testing.T) {
	type call struct {
		name string
		path string
		body []byte
	}
	var calls []call
	add := func(name, path string, body any) {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{name, path, data})
	}
	for i, spec := range []scenario.Spec{
		{Family: scenario.ClusterGrid, N: 12_000, PowerLevels: 8},
		{Family: scenario.FatTree, N: 9_000, PowerLevels: 8},
		{Family: scenario.ClusterGrid, N: 5_000, PowerLevels: 4},
		{Family: scenario.PowerLaw, N: 6_000, PowerLevels: 8},
		{Family: scenario.Bimodal, N: 3_000},
		{Family: scenario.FatTree, N: 2_000, PowerLevels: 20},
		{Family: scenario.ClusterGrid, N: 300},
	} {
		spec.Seed = int64(101 + i)
		pr := PlanRequest{Scenario: &spec, Wapp: 200}
		add(fmt.Sprintf("plan %s n=%d", spec.Family, spec.N), "/v1/plan", pr)
		again := pr
		again.NoCache = true
		add(fmt.Sprintf("re-plan %s n=%d", spec.Family, spec.N), "/v1/plan", again)
		if i%2 == 0 {
			add(fmt.Sprintf("deploy %s n=%d", spec.Family, spec.N), "/v1/deploy",
				DeployRequest{PlanRequest: pr, Clients: 1, DurationMillis: 20})
		}
	}
	add("portfolio power-law n=200", "/v1/plan",
		PlanRequest{Scenario: &scenario.Spec{Family: scenario.PowerLaw, N: 200, Seed: 7}, Portfolio: true})
	post := func(srv *Server, c call) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body)))
		return rec
	}

	want := make([]answer, len(calls))
	for i, c := range calls {
		fresh, err := New(Config{SampleInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answerOf(t, c.path, post(fresh, c))
		fresh.Close()
	}

	srv, err := New(Config{Workers: 3, QueueDepth: 64, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got := make([]answer, len(calls))
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = answerOf(t, c.path, post(srv, c))
		}()
	}
	wg.Wait()
	for i, c := range calls {
		if got[i] != want[i] {
			t.Errorf("%s: answered %+v on a busy server, a fresh one %+v", c.name, got[i], want[i])
		}
	}
}
