package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adept/internal/core"
)

// panicky is a planner with a bug: once released, it panics while armed
// and plans as the heuristic does otherwise.
type panicky struct {
	release chan struct{}
	armed   *atomic.Bool
}

func (panicky) Name() string { return "panicky" }

func (p panicky) PlanContext(ctx context.Context, req core.Request) (*core.Plan, error) {
	<-p.release
	if p.armed.Load() {
		panic("planner bug")
	}
	return core.NewHeuristic().PlanContext(ctx, req)
}

// hollow is a planner with a bug that only rendering meets: it answers a
// plan with no deployment tree.
type hollow struct{}

func (hollow) Name() string { return "hollow" }

func (hollow) PlanContext(context.Context, core.Request) (*core.Plan, error) {
	return &core.Plan{Planner: "hollow"}, nil
}

// lockedBuffer is a log sink the daemon's goroutines write while the test
// reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestPlannerPanicIsContained: a planner that panics costs the requests
// that ran it a 500 — every request of a coalesced flight, and a no_cache
// run — and not the daemon its life. The panic is logged with its stack
// under the request's ID, the daemon goes on answering, and the panicked
// run caches nothing. So does a plan that panics in Render, on the
// flight's goroutine after the planning job.
func TestPlannerPanicIsContained(t *testing.T) {
	p := panicky{release: make(chan struct{}), armed: new(atomic.Bool)}
	p.armed.Store(true)
	for _, bug := range []core.Planner{p, hollow{}} {
		planners = append(planners, planners[0])
		planners[len(planners)-1].name = bug.Name()
		planners[len(planners)-1].make = func() core.Planner { return bug }
	}
	t.Cleanup(func() { planners = planners[:len(planners)-2] })

	var logs lockedBuffer
	srv, err := New(Config{CacheSize: 16, Workers: 4, QueueDepth: 16, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	post := func(pr PlanRequest, id string) (int, PlanResponse) {
		body, err := json.Marshal(pr)
		if err != nil {
			t.Error(err)
			return 0, PlanResponse{}
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, PlanResponse{}
		}
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0, PlanResponse{}
		}
		defer resp.Body.Close()
		var out PlanResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	// Two identical requests share one flight; the planner panics once
	// both wait on it.
	buggy := PlanRequest{Platform: testPlatform(10), Planner: "panicky", DgemmN: 310}
	codes := make([]int, 2)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(buggy, "flight-"+string(rune('a'+i)))
		}(i)
	}
	waitUntil(t, "the second request to join the flight", func() bool { return srv.flights.Coalesced() == 1 })
	close(p.release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusInternalServerError {
			t.Errorf("coalesced request %d: status %d, want 500", i, code)
		}
	}
	private := buggy
	private.NoCache = true
	if code, _ := post(private, "private"); code != http.StatusInternalServerError {
		t.Errorf("no_cache request: status %d, want 500", code)
	}
	if got := strings.Count(logs.String(), `"msg":"planner panic"`); got != 2 {
		t.Errorf("%d planner panics logged, want 2 (one per run)\n%s", got, logs.String())
	}
	for _, want := range []string{`"request_id":"private"`, `"panic":"planner bug"`, "panic_test.go"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("panic log lacks %s\n%s", want, logs.String())
		}
	}

	// The daemon still answers.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after the panics: status %d, want 200", resp.StatusCode)
	}
	if code, _ := post(PlanRequest{Platform: testPlatform(10), DgemmN: 310}, "after"); code != http.StatusOK {
		t.Errorf("plan after the panics: status %d, want 200", code)
	}
	// Nothing was cached for the panicked key: once the bug is gone, a
	// resend plans afresh.
	p.armed.Store(false)
	if code, pr := post(buggy, "resend"); code != http.StatusOK || pr.Cached {
		t.Errorf("resend: status %d cached %v, want 200 and not cached", code, pr.Cached)
	}

	// A plan with no tree panics in Render. Nothing is cached, so the
	// resend renders, and panics, again.
	hollowReq := PlanRequest{Platform: testPlatform(10), Planner: "hollow", DgemmN: 310}
	for _, id := range []string{"hollow-1", "hollow-2"} {
		if code, _ := post(hollowReq, id); code != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500", id, code)
		}
		if !strings.Contains(logs.String(), `"request_id":"`+id+`"`) {
			t.Errorf("no panic logged under %s\n%s", id, logs.String())
		}
	}
	if code, _ := post(PlanRequest{Platform: testPlatform(10), DgemmN: 310}, "after render"); code != http.StatusOK {
		t.Errorf("plan after the render panics: status %d, want 200", code)
	}
}
