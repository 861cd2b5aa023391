package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/workload"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{CacheSize: 16, Workers: 4, QueueDepth: 16})
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

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func testPlatform(n int) *platform.Platform { return uniformPool("svc-test", n, 42) }

// uniformPool draws n powers uniformly from [100, 800) under seed and names
// the nodes "<name>-%03d": the pools http_golden.json pins.
func uniformPool(name string, n int, seed int64) *platform.Platform {
	rng := rand.New(rand.NewSource(seed))
	p := &platform.Platform{Name: name, Bandwidth: 100}
	for i := 0; i < n; i++ {
		p.Nodes = append(p.Nodes, platform.Node{Name: fmt.Sprintf("%s-%03d", name, i), Power: 100 + rng.Float64()*700})
	}
	return p
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{
		Platform: testPlatform(20),
		DgemmN:   310,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Planner != "heuristic" {
		t.Errorf("planner = %q, want heuristic", pr.Planner)
	}
	if pr.Rho <= 0 {
		t.Errorf("rho = %g, want positive", pr.Rho)
	}
	if pr.Cached {
		t.Error("first request reported as cached")
	}
	if pr.XML == "" {
		t.Error("missing deployment XML")
	}
	if pr.Agents+pr.Servers != pr.NodesUsed {
		t.Errorf("agents %d + servers %d != nodes_used %d", pr.Agents, pr.Servers, pr.NodesUsed)
	}
}

func TestPlanCachedOnRepeat(t *testing.T) {
	_, ts := newTestServer(t)
	req := PlanRequest{Platform: testPlatform(20), DgemmN: 310}

	_, body1 := postJSON(t, ts.URL+"/v1/plan", req)
	var first PlanResponse
	if err := json.Unmarshal(body1, &first); err != nil {
		t.Fatal(err)
	}
	_, body2 := postJSON(t, ts.URL+"/v1/plan", req)
	var second PlanResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request cached")
	}
	if !second.Cached {
		t.Error("repeat request not cached")
	}
	if first.Key != second.Key {
		t.Errorf("keys differ: %s vs %s", first.Key, second.Key)
	}
	if first.Rho != second.Rho {
		t.Errorf("rho differs: %g vs %g", first.Rho, second.Rho)
	}

	// The hit is visible in /v1/metrics.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 1 {
		t.Errorf("cache_hits = %d, want 1", rep.CacheHits)
	}
	if rep.CacheMisses < 1 {
		t.Errorf("cache_misses = %d, want >= 1", rep.CacheMisses)
	}
	if ep, ok := rep.Endpoints["plan"]; !ok || ep.Requests != 2 {
		t.Errorf("plan endpoint metrics = %+v, want 2 requests", ep)
	}
}

// TestPlanConcurrent exercises the acceptance criterion: many clients
// planning in parallel against the bounded pool, all receiving the same
// correct answer.
func TestPlanConcurrent(t *testing.T) {
	_, ts := newTestServer(t)
	const clients = 16
	req := PlanRequest{Platform: testPlatform(30), DgemmN: 310}

	var wg sync.WaitGroup
	rhos := make([]float64, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var pr PlanResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				errs[i] = err
				return
			}
			rhos[i] = pr.Rho
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if rhos[i] != rhos[0] {
			t.Errorf("client %d rho %g != client 0 rho %g", i, rhos[i], rhos[0])
		}
	}
}

func TestPlanErrors(t *testing.T) {
	_, ts := newTestServer(t)

	cases := []struct {
		name string
		body any
		want int
	}{
		{"no platform", PlanRequest{DgemmN: 310}, http.StatusBadRequest},
		{"both platforms", PlanRequest{Platform: testPlatform(5), PlatformName: "x"}, http.StatusBadRequest},
		{"unknown planner", PlanRequest{Platform: testPlatform(5), Planner: "quantum"}, http.StatusBadRequest},
		{"unregistered name", PlanRequest{PlatformName: "nope"}, http.StatusBadRequest},
		{"one node", PlanRequest{Platform: platform.Homogeneous("tiny", 1, 100, 100)}, http.StatusBadRequest},
		{"garbage json", "{not json", http.StatusBadRequest},
	}
	for _, tc := range cases {
		var resp *http.Response
		if s, ok := tc.body.(string); ok {
			var err error
			resp, err = http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader([]byte(s)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		} else {
			resp, _ = postJSON(t, ts.URL+"/v1/plan", tc.body)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestPlatformCRUD(t *testing.T) {
	_, ts := newTestServer(t)
	client := &http.Client{}
	plat := testPlatform(8)
	data, err := plat.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	// PUT registers.
	put, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/platforms/lyon", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}

	// GET returns it.
	resp, err = http.Get(ts.URL + "/v1/platforms/lyon")
	if err != nil {
		t.Fatal(err)
	}
	var got platform.Platform
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(plat.Nodes) {
		t.Errorf("GET returned %d nodes, want %d", len(got.Nodes), len(plat.Nodes))
	}

	// List includes it.
	resp, err = http.Get(ts.URL + "/v1/platforms")
	if err != nil {
		t.Fatal(err)
	}
	var list map[string][]string
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if names := list["platforms"]; len(names) != 1 || names[0] != "lyon" {
		t.Errorf("list = %v, want [lyon]", names)
	}

	// Planning by registry name works.
	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{PlatformName: "lyon", DgemmN: 310})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan by name: status %d: %s", resp.StatusCode, body)
	}

	// DELETE removes it; a second DELETE 404s.
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/platforms/lyon", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE status %d", resp.StatusCode)
	}
	resp, err = client.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE status %d, want 404", resp.StatusCode)
	}

	// GET of a missing platform 404s.
	resp, err = http.Get(ts.URL + "/v1/platforms/lyon")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after delete status %d, want 404", resp.StatusCode)
	}

	// PUT of an invalid platform is rejected.
	put, err = http.NewRequest(http.MethodPut, ts.URL+"/v1/platforms/bad", bytes.NewReader([]byte(`{"name":"bad","bandwidth_mbps":-1,"nodes":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid PUT status %d, want 400", resp.StatusCode)
	}
}

// TestPlatformPutHostileBodies: whatever a PUT body holds, the daemon
// answers it and the next request. An unknown member nesting a 16 MiB run
// of '[' is a 400 under a 64 MiB stack cap — decoding does not recurse — a
// body cut off mid-node is a 400, and one byte over the body limit a 413.
func TestPlatformPutHostileBodies(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	_, ts := newTestServer(t)
	put := func(body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/platforms/hostile", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	valid, err := testPlatform(8).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	deep := []byte(`{"name":"hostile","x":`)
	deep = append(deep, bytes.Repeat([]byte("["), maxRequestBody-len(deep))...)
	cut := valid[:bytes.Index(valid, []byte(`"power"`))+10]
	over := append(append([]byte(nil), valid...), bytes.Repeat([]byte(" "), maxRequestBody+1-len(valid))...)
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"16 MiB of [", deep, http.StatusBadRequest},
		{"cut off mid-node", cut, http.StatusBadRequest},
		{"one byte over the limit", over, http.StatusRequestEntityTooLarge},
	} {
		if got := put(tc.body); got != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.status)
		}
		if got := put(valid); got != http.StatusOK {
			t.Fatalf("after %s: a valid PUT answered %d", tc.name, got)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	plat := testPlatform(15)
	br := BatchRequest{Requests: []PlanRequest{
		{Platform: plat, Planner: "heuristic", DgemmN: 310},
		{Platform: plat, Planner: "star", DgemmN: 310},
		{Platform: plat, Planner: "balanced", DgemmN: 310},
		{Platform: plat, Planner: "bogus", DgemmN: 310}, // per-item error
	}}
	resp, body := postJSON(t, ts.URL+"/v1/plan/batch", br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(out.Items))
	}
	wantPlanner := []string{"heuristic", "star", "balanced"}
	for i, want := range wantPlanner {
		item := out.Items[i]
		if item.Error != "" || item.Plan == nil {
			t.Fatalf("item %d: error %q", i, item.Error)
		}
		if item.Plan.Planner != want {
			t.Errorf("item %d planner = %q, want %q", i, item.Plan.Planner, want)
		}
		if item.Plan.Rho <= 0 {
			t.Errorf("item %d rho = %g", i, item.Plan.Rho)
		}
	}
	if out.Items[3].Error == "" {
		t.Error("bogus planner item did not error")
	}
	if out.Succeeded != 3 || out.Failed != 1 {
		t.Errorf("succeeded/failed = %d/%d, want 3/1", out.Succeeded, out.Failed)
	}
	// The heuristic beats or matches the naive baselines on this pool.
	if out.Items[0].Plan.Capped < out.Items[2].Plan.Capped {
		t.Errorf("heuristic (%g) worse than balanced (%g)",
			out.Items[0].Plan.Capped, out.Items[2].Plan.Capped)
	}

	// An empty batch is rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/plan/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status %d, want 400", resp.StatusCode)
	}
}

func TestDeployEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	dr := DeployRequest{
		PlanRequest: PlanRequest{
			Platform: platform.Homogeneous("live", 6, 400, 100),
			Wapp:     5.0,
		},
		Clients:        3,
		DurationMillis: 300,
	}
	resp, body := postJSON(t, ts.URL+"/v1/deploy", dr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out DeployResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Completed <= 0 {
		t.Errorf("completed = %d, want positive", out.Completed)
	}
	if out.Failed != 0 {
		t.Errorf("failed = %d", out.Failed)
	}
	if out.Plan == nil || out.Plan.Rho <= 0 {
		t.Error("missing plan in deploy response")
	}
	if len(out.ServedCounts) == 0 {
		t.Error("no served counts")
	}
}

func TestRegistryLoadDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"alpha", "beta"} {
		if err := testPlatform(6).SaveJSON(dir + "/" + name + ".json"); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	names, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("names = %v, want [alpha beta]", names)
	}
	if _, ok := reg.Get("alpha"); !ok {
		t.Error("alpha not registered")
	}
}

// blockPoolWorker holds one worker slot of pool inside a job until the
// returned release function is called, and only returns once the job is
// actually executing.
func blockPoolWorker(t *testing.T, pool *Pool) (release func()) {
	t.Helper()
	started := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		_, _ = pool.Submit(context.Background(), func(context.Context) (*core.Plan, error) {
			close(started)
			<-stop
			return nil, nil
		})
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocker never reached a worker")
	}
	var once sync.Once
	return func() { once.Do(func() { close(stop) }) }
}

// With no queue, a saturated pool sheds the submission immediately with
// ErrQueueFull instead of blocking the caller — the admission-control
// contract behind the daemon's 429s.
func TestPoolFailFastWhenSaturated(t *testing.T) {
	pool, err := NewPool(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	release := blockPoolWorker(t, pool)
	defer release()
	before := pool.Rejected() // the blocker may have retried through rejections

	start := time.Now()
	_, err = pool.Submit(context.Background(), func(context.Context) (*core.Plan, error) {
		t.Error("shed job ran")
		return nil, nil
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("fail-fast submit blocked %v", waited)
	}
	if got := pool.Rejected(); got != before+1 {
		t.Errorf("rejected = %d, want %d", got, before+1)
	}
}

// A job that made it into a buffered queue must still unblock its
// submitter promptly when the context fires, not wait for a worker.
func TestPoolCancellationWhileQueued(t *testing.T) {
	pool, err := NewPool(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	release := blockPoolWorker(t, pool)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = pool.Submit(ctx, func(context.Context) (*core.Plan, error) {
		return nil, nil // queued behind the blocker; must never matter
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("queued submit blocked %v past its deadline", waited)
	}
}

// An idle pool admits whatever its queue depth: with no queue at all, a
// lone submitter's back-to-back jobs always find the slot its previous job
// released. (The worker-goroutine pool admitted only when a worker was
// already parked in its receive, so this loop used to shed.)
func TestPoolIdleNeverSheds(t *testing.T) {
	pool, err := NewPool(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 1000; i++ {
		if _, err := pool.Submit(context.Background(), func(context.Context) (*core.Plan, error) {
			return nil, nil
		}); err != nil {
			t.Fatalf("submit %d on an idle pool: %v", i, err)
		}
	}
	if got := pool.Rejected(); got != 0 {
		t.Errorf("rejected = %d, want 0", got)
	}
	if got := pool.Executed(); got != 1000 {
		t.Errorf("executed = %d, want 1000", got)
	}
}

// QueueDepth is the number of submitters parked behind the workers: it
// follows them as they arrive, as one gives up, and as Close turns the
// rest away.
func TestPoolQueueDepthCountsParkedSubmitters(t *testing.T) {
	pool, err := NewPool(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	release := blockPoolWorker(t, pool)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 3)
	park := func(ctx context.Context) {
		_, err := pool.Submit(ctx, func(context.Context) (*core.Plan, error) {
			t.Error("parked job ran")
			return nil, nil
		})
		errs <- err
	}
	go park(ctx)
	waitUntil(t, "first submitter to park", func() bool { return pool.QueueDepth() == 1 })
	go park(context.Background())
	go park(context.Background())
	waitUntil(t, "three submitters to park", func() bool { return pool.QueueDepth() == 3 })
	if got := pool.Active(); got != 1 {
		t.Errorf("active = %d, want 1 (the blocker)", got)
	}

	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled submitter got %v, want context.Canceled", err)
	}
	waitUntil(t, "cancelled submitter to leave the queue", func() bool { return pool.QueueDepth() == 2 })

	closed := make(chan struct{})
	go func() {
		pool.Close() // returns once the blocker is released below
		close(closed)
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrPoolClosed) {
			t.Errorf("parked submitter got %v at close, want ErrPoolClosed", err)
		}
	}
	waitUntil(t, "queue to empty", func() bool { return pool.QueueDepth() == 0 })
	release()
	<-closed
	if got := pool.Rejected(); got != 0 {
		t.Errorf("rejected = %d, want 0: nobody was shed", got)
	}
}

// TestPlanCoalescesThunderingHerd is the tentpole acceptance test: N
// concurrent identical cold-cache requests execute exactly one planner
// run. Everyone gets the same answer; all but the flight leader report
// either coalesced (joined the in-flight run) or cached (arrived after it
// landed).
func TestPlanCoalescesThunderingHerd(t *testing.T) {
	srv, ts := newTestServer(t)
	data, err := json.Marshal(PlanRequest{Platform: testPlatform(600), DgemmN: 310})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 12
	start := make(chan struct{})
	prs := make([]PlanResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&prs[i])
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := srv.pool.Executed(); got != 1 {
		t.Errorf("planner ran %d times for %d identical requests, want exactly 1", got, clients)
	}
	leaders, coalesced, cached := 0, 0, 0
	for i := range prs {
		if prs[i].Rho != prs[0].Rho {
			t.Errorf("client %d rho %g != client 0 rho %g", i, prs[i].Rho, prs[0].Rho)
		}
		switch {
		case prs[i].Cached:
			cached++
		case prs[i].Coalesced:
			coalesced++
		default:
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders (uncached, uncoalesced responses), want 1", leaders)
	}
	if coalesced+cached != clients-1 {
		t.Errorf("coalesced %d + cached %d != %d joiners", coalesced, cached, clients-1)
	}

	// The sharing is visible in /v1/metrics.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.PlansExecuted != 1 {
		t.Errorf("metrics plans_executed = %d, want 1", rep.PlansExecuted)
	}
	if int(rep.Coalesced) != coalesced {
		t.Errorf("metrics coalesced = %d, responses said %d", rep.Coalesced, coalesced)
	}
	// Misses are charged where planning happens: the herd is one miss,
	// not N — joiners and late cache hits count no miss of their own.
	if rep.CacheMisses != 1 {
		t.Errorf("metrics cache_misses = %d, want 1 for a coalesced herd", rep.CacheMisses)
	}
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPlanBackpressure429 saturates a one-worker, one-slot daemon and
// verifies the admission control path: the excess request is shed
// immediately with 429 + Retry-After instead of parking its handler
// goroutine, and the rejection is visible in /v1/metrics.
func TestPlanBackpressure429(t *testing.T) {
	srv, err := New(Config{CacheSize: 16, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	release := blockPoolWorker(t, srv.pool)
	defer release()

	// Fill the single queue slot with a distinct-key request; it parks
	// behind the blocked worker until release.
	queuedDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: testPlatform(10), DgemmN: 310})
		queuedDone <- resp.StatusCode
	}()
	waitUntil(t, "queue slot to fill", func() bool { return srv.pool.QueueDepth() == 1 })

	// A further distinct-key request has nowhere to go: shed, not parked.
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: testPlatform(11), DgemmN: 310})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("shed request took %v, want fail-fast", waited)
	}

	release()
	if status := <-queuedDone; status != http.StatusOK {
		t.Errorf("queued request finished with %d, want 200", status)
	}

	respM, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer respM.Body.Close()
	var rep Report
	if err := json.NewDecoder(respM.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Rejected < 1 {
		t.Errorf("metrics rejected = %d, want >= 1", rep.Rejected)
	}
	if rep.QueueCapacity != 1 {
		t.Errorf("metrics queue_capacity = %d, want 1", rep.QueueCapacity)
	}
}

// TestPoolCloseDrainsDeterministically pins the shutdown contract: jobs
// still queued when Close fires are uniformly answered with ErrPoolClosed
// and never run — the old worker select raced quit against the job queue
// and randomly did either. Run with -race.
func TestPoolCloseDrainsDeterministically(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		pool, err := NewPool(1, 8)
		if err != nil {
			t.Fatal(err)
		}
		release := blockPoolWorker(t, pool)

		var ran atomic.Int64
		const queued = 8
		errs := make(chan error, queued)
		for i := 0; i < queued; i++ {
			go func() {
				_, err := pool.Submit(context.Background(), func(context.Context) (*core.Plan, error) {
					ran.Add(1)
					return nil, nil
				})
				errs <- err
			}()
		}
		waitUntil(t, "jobs to queue", func() bool { return pool.QueueDepth() == queued })

		closed := make(chan struct{})
		go func() {
			pool.Close()
			close(closed)
		}()
		// Release the blocker only once shutdown has been signalled, so the
		// queued jobs are dequeued strictly after quit closed.
		waitUntil(t, "quit to close", func() bool {
			select {
			case <-pool.quit:
				return true
			default:
				return false
			}
		})
		release()
		<-closed

		for i := 0; i < queued; i++ {
			if err := <-errs; !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("iter %d: queued job got %v, want ErrPoolClosed", iter, err)
			}
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("iter %d: %d queued job(s) ran during shutdown", iter, n)
		}
	}
}

// A dropped client is a 499 (log-only), not a 504 server error; the
// server-side deadline stays a 504. The two used to be conflated.
func TestPlanClientCancelVsDeadline(t *testing.T) {
	srv, err := New(Config{CacheSize: 16, Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	release := blockPoolWorker(t, srv.pool)
	defer release()

	// Client walks away while its job is queued behind the blocker.
	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil).WithContext(ctx)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, _, err = srv.plan(r, &PlanRequest{Platform: testPlatform(10), DgemmN: 310})
	if status := planStatus(r, err); status != statusClientClosedRequest {
		t.Errorf("client cancel: status %d, want %d", status, statusClientClosedRequest)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("client cancel: err = %v, want context.Canceled", err)
	}

	// Server-side deadline on a still-interested client: 504.
	r2 := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	_, _, err = srv.plan(r2, &PlanRequest{Platform: testPlatform(12), DgemmN: 310, TimeoutMillis: 30})
	if status := planStatus(r2, err); status != http.StatusGatewayTimeout {
		t.Errorf("deadline: status %d, want 504", status)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// A leader with a tiny timeout_ms must not doom joiners with bigger
// budgets: the shared flight runs under the server-wide cap, the leader
// alone gets its 504, and the joiner still receives the plan.
func TestShortLeaderTimeoutDoesNotPoisonJoiner(t *testing.T) {
	srv, err := New(Config{CacheSize: 16, Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	release := blockPoolWorker(t, srv.pool)
	defer release()

	plat := testPlatform(14)
	leaderDone := make(chan int, 1)
	go func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
		_, _, err := srv.plan(r, &PlanRequest{Platform: plat, DgemmN: 310, TimeoutMillis: 50})
		leaderDone <- planStatus(r, err)
	}()
	waitUntil(t, "flight to register", func() bool {
		srv.flights.mu.Lock()
		defer srv.flights.mu.Unlock()
		return len(srv.flights.flights) == 1
	})

	joinerDone := make(chan *PlanResponse, 1)
	go func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
		resp, _, err := srv.plan(r, &PlanRequest{Platform: plat, DgemmN: 310})
		if err != nil {
			t.Errorf("joiner: %v", err)
			joinerDone <- nil
			return
		}
		joinerDone <- resp
	}()

	if status := <-leaderDone; status != http.StatusGatewayTimeout {
		t.Errorf("leader status %d, want 504", status)
	}
	release() // worker picks up the still-alive flight job
	if resp := <-joinerDone; resp != nil {
		if !resp.Coalesced {
			t.Error("joiner not marked coalesced")
		}
		if resp.Rho <= 0 {
			t.Errorf("joiner rho = %g", resp.Rho)
		}
	}
}

// A batch whose every item failed must not masquerade as a success.
func TestBatchAllFailed(t *testing.T) {
	_, ts := newTestServer(t)
	br := BatchRequest{Requests: []PlanRequest{
		{Platform: testPlatform(5), Planner: "bogus", DgemmN: 310},
		{PlatformName: "never-registered", DgemmN: 310},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/plan/batch", br)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 2 || out.Succeeded != 0 {
		t.Errorf("failed/succeeded = %d/%d, want 2/0", out.Failed, out.Succeeded)
	}
}

// A batch that failed purely from load shedding is retryable overload:
// 429 with Retry-After, not a terminal 422.
func TestBatchAllShedIs429(t *testing.T) {
	srv, err := New(Config{CacheSize: 16, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	release := blockPoolWorker(t, srv.pool)
	defer release()

	// Park a distinct-key request in the single queue slot so every batch
	// item is shed rather than queued.
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: testPlatform(30), DgemmN: 310})
	}()
	waitUntil(t, "queue slot to fill", func() bool { return srv.pool.QueueDepth() == 1 })
	defer func() {
		release()
		<-queuedDone
	}()

	br := BatchRequest{Requests: []PlanRequest{
		{Platform: testPlatform(8), DgemmN: 310},
		{Platform: testPlatform(9), DgemmN: 310},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/plan/batch", br)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 2 || out.Succeeded != 0 {
		t.Errorf("failed/succeeded = %d/%d, want 2/0", out.Failed, out.Succeeded)
	}
}

// TestRegistryPersistence covers the journal: Put writes through to the
// directory, a fresh registry recovers the platforms after a "restart",
// Delete removes the file, and path-escaping names are rejected.
func TestRegistryPersistence(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if err := reg.PersistTo(dir); err != nil {
		t.Fatal(err)
	}
	plat := testPlatform(6)
	if err := reg.Put("lyon", plat); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "lyon.json")); err != nil {
		t.Fatalf("journal file missing: %v", err)
	}

	// A daemon restart pointed at the same dir recovers the platform.
	reg2 := NewRegistry()
	names, err := reg2.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "lyon" {
		t.Fatalf("recovered names = %v, want [lyon]", names)
	}
	got, ok := reg2.Get("lyon")
	if !ok || len(got.Nodes) != len(plat.Nodes) {
		t.Errorf("recovered platform has %d nodes, want %d", len(got.Nodes), len(plat.Nodes))
	}

	if !reg.Delete("lyon") {
		t.Fatal("delete failed")
	}
	if _, err := os.Stat(filepath.Join(dir, "lyon.json")); !os.IsNotExist(err) {
		t.Errorf("journal file survived delete: %v", err)
	}

	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, ".hidden"} {
		if err := reg.Put(bad, plat); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	// Nothing escaped the directory: only the version sidecar (which
	// must survive the delete — it carries the tombstone) may remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != versionsSidecar {
			t.Errorf("stray journal file: %v", e.Name())
		}
	}
}

// TestPlannerContextCancellation proves the PlanContext plumbing reaches
// the planners' inner loops: an already-cancelled context aborts each
// planner.
func TestPlannerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := core.Request{
		Platform: testPlatform(20),
		Costs:    model.DIETDefaults(),
		Wapp:     workload.DGEMM{N: 310}.MFlop(),
	}

	for _, name := range PlannerNames() {
		planner, err := SelectPlanner(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "exhaustive" {
			// The exhaustive planner rejects 20 nodes before looking at the
			// context; give it a pool it accepts but cannot finish fast.
			small, _ := scenario.Spec{Family: scenario.Clustered, N: 8, MinPower: 100, MaxPower: 800, Seed: 7}.Generate()
			r := req
			r.Platform = small
			if _, err := planner.PlanContext(ctx, r); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", name, err)
			}
			continue
		}
		if _, err := planner.PlanContext(ctx, req); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestPlanPortfolioOption exercises portfolio=true end to end: the portfolio
// runs through the worker pool, the response carries per-variant stats
// with exactly one winner, the returned throughput dominates the plain
// heuristic's, and a cached repeat omits the stats (no variant
// re-ran). A conflicting explicit planner is rejected.
func TestPlanPortfolioOption(t *testing.T) {
	_, ts := newTestServer(t)
	plat := testPlatform(20)

	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: plat, DgemmN: 310, Portfolio: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Variants) == 0 {
		t.Fatal("portfolio response carries no variant stats")
	}
	winners := 0
	for _, v := range pr.Variants {
		if v.Winner {
			winners++
			if want := "portfolio:" + v.Variant; pr.Planner != want {
				t.Errorf("planner %q, want %q", pr.Planner, want)
			}
		}
	}
	if winners != 1 {
		t.Errorf("%d winners in stats, want 1", winners)
	}

	respH, bodyH := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: plat, DgemmN: 310})
	if respH.StatusCode != http.StatusOK {
		t.Fatalf("heuristic status %d: %s", respH.StatusCode, bodyH)
	}
	var hr PlanResponse
	if err := json.Unmarshal(bodyH, &hr); err != nil {
		t.Fatal(err)
	}
	if pr.Capped < hr.Capped {
		t.Errorf("portfolio capped %.4f below heuristic %.4f", pr.Capped, hr.Capped)
	}

	// Cached repeat: same key, nothing ran, so no variant stats.
	resp2, body2 := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: plat, DgemmN: 310, Portfolio: true})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp2.StatusCode, body2)
	}
	var pr2 PlanResponse
	if err := json.Unmarshal(body2, &pr2); err != nil {
		t.Fatal(err)
	}
	if !pr2.Cached {
		t.Error("repeat portfolio request not served from cache")
	}
	if len(pr2.Variants) != 0 {
		t.Error("cached response repeats variant stats")
	}

	respBad, bodyBad := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: plat, DgemmN: 310, Portfolio: true, Planner: "star"})
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("conflicting planner accepted: status %d: %s", respBad.StatusCode, bodyBad)
	}
}

// TestPlanHeterogeneousLinks covers the extended wire schema end to end:
// a multi-cluster platform registered through PUT /v1/platforms, planned
// via platform_name, with the response reporting the link-bandwidth range
// and the plan's XML carrying per-node bandwidth attributes.
func TestPlanHeterogeneousLinks(t *testing.T) {
	_, ts := newTestServer(t)
	grid, err := scenario.Spec{
		Family: scenario.ClusterGrid, Name: "grid", N: 12, Clusters: 3,
		InterBandwidth: 5, MinPower: 200, MaxPower: 900, Seed: 7,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}

	// Register through the wire: the extended schema must survive the
	// JSON round trip.
	data, err := grid.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	putReq, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/platforms/grid", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("PUT platform status %d", putResp.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{PlatformName: "grid", DgemmN: 310})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.MinLinkBandwidth != 5 || pr.MaxLinkBandwidth != 100 {
		t.Errorf("link range [%g, %g], want [5, 100]", pr.MinLinkBandwidth, pr.MaxLinkBandwidth)
	}
	if !bytes.Contains([]byte(pr.XML), []byte(`bandwidth="5"`)) {
		t.Errorf("plan XML missing per-node bandwidth attributes:\n%s", pr.XML)
	}

	// A uniform platform reports a degenerate range and clean XML.
	uresp, ubody := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Platform: testPlatform(12), DgemmN: 310})
	if uresp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", uresp.StatusCode, ubody)
	}
	var upr PlanResponse
	if err := json.Unmarshal(ubody, &upr); err != nil {
		t.Fatal(err)
	}
	if upr.MinLinkBandwidth != 100 || upr.MaxLinkBandwidth != 100 {
		t.Errorf("uniform link range [%g, %g], want [100, 100]", upr.MinLinkBandwidth, upr.MaxLinkBandwidth)
	}
	if bytes.Contains([]byte(upr.XML), []byte("bandwidth=")) {
		t.Errorf("uniform plan XML leaks bandwidth attributes:\n%s", upr.XML)
	}
}

// TestPlanScenario covers the server-side generation request path: a
// declarative spec plans without shipping nodes over the wire, a large
// quantised pool engages the class-collapsed planner (reported on the
// wire and counted by the daemon), and the spec itself is the cache's
// content address: the repeat is a hit that generates nothing.
func TestPlanScenario(t *testing.T) {
	srv, ts := newTestServer(t)
	spec := &scenario.Spec{Family: scenario.ClusterGrid, N: 5000, Seed: 11, PowerLevels: 8}
	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Scenario: spec, DgemmN: 310})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.PoolNodes != 5000 {
		t.Errorf("pool_nodes = %d, want 5000", pr.PoolNodes)
	}
	if !pr.ClassPlanned {
		t.Error("quantised 5000-node pool did not report class_planned")
	}
	if pr.SpecClasses < 2 || pr.SpecClasses > 64 {
		t.Errorf("spec_classes = %d, want a small positive class count", pr.SpecClasses)
	}
	if pr.Rho <= 0 {
		t.Errorf("rho = %g, want > 0", pr.Rho)
	}
	if got := srv.classPlans.Load(); got != 1 {
		t.Errorf("classPlans = %d after one fresh class plan, want 1", got)
	}

	// The same spec is the same content address: a hit, with the plan's
	// class provenance preserved through the cache, and no re-count.
	resp2, body2 := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Scenario: spec, DgemmN: 310})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	var pr2 PlanResponse
	if err := json.Unmarshal(body2, &pr2); err != nil {
		t.Fatal(err)
	}
	if !pr2.Cached {
		t.Error("identical scenario request missed the cache")
	}
	if !pr2.ClassPlanned || pr2.SpecClasses != pr.SpecClasses {
		t.Errorf("cached response lost class provenance: class_planned=%v spec_classes=%d", pr2.ClassPlanned, pr2.SpecClasses)
	}
	if got := srv.classPlans.Load(); got != 1 {
		t.Errorf("classPlans = %d after a cache hit, want still 1", got)
	}

	// A small continuous pool plans fine but stays on the node path.
	respSmall, bodySmall := postJSON(t, ts.URL+"/v1/plan", PlanRequest{
		Scenario: &scenario.Spec{Family: scenario.PowerLaw, N: 24, Seed: 3}, DgemmN: 310,
	})
	if respSmall.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", respSmall.StatusCode, bodySmall)
	}
	var prSmall PlanResponse
	if err := json.Unmarshal(bodySmall, &prSmall); err != nil {
		t.Fatal(err)
	}
	if prSmall.PoolNodes != 24 || prSmall.ClassPlanned || prSmall.SpecClasses != 0 {
		t.Errorf("small pool reported pool_nodes=%d class_planned=%v spec_classes=%d, want 24/false/0",
			prSmall.PoolNodes, prSmall.ClassPlanned, prSmall.SpecClasses)
	}

	// Scenario is a platform source of its own: combining it with an
	// inline platform (or a registry name) is a client error.
	respBad, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{
		Scenario: spec, Platform: testPlatform(8), DgemmN: 310,
	})
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("scenario+platform accepted: status %d", respBad.StatusCode)
	}
	respBad2, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{
		Scenario: spec, PlatformName: "nope", DgemmN: 310,
	})
	if respBad2.StatusCode != http.StatusBadRequest {
		t.Errorf("scenario+platform_name accepted: status %d", respBad2.StatusCode)
	}

	// A bad spec surfaces as a 400, not a planner failure.
	respErr, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{
		Scenario: &scenario.Spec{Family: "no-such-family", N: 10}, DgemmN: 310,
	})
	if respErr.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scenario family: status %d, want 400", respErr.StatusCode)
	}
}

// TestPlanPortfolioOneAnswerUnderDemand is the serving-layer face of the
// portfolio's determinism: under a demand that several variants meet, 50
// uncached portfolio requests through a 4-slot pool get one planner, one
// XML and the 2-node deployment, no variant reports a cancelled context
// (nothing cuts a variant short any more), and the answer the cache then
// holds under the request's address is that same XML.
func TestPlanPortfolioOneAnswerUnderDemand(t *testing.T) {
	_, ts := newTestServer(t)
	req := PlanRequest{
		Scenario:  &scenario.Spec{Family: scenario.ClusterGrid, N: 400, Seed: 7},
		DgemmN:    310,
		Demand:    50,
		Portfolio: true,
		NoCache:   true,
	}
	const calls, clients = 50, 5
	answers := make([]PlanResponse, calls)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < calls; i += clients {
				resp, body := postJSON(t, ts.URL+"/v1/plan", req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("call %d: status %d: %s", i, resp.StatusCode, body)
					return
				}
				if err := json.Unmarshal(body, &answers[i]); err != nil {
					t.Errorf("call %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	first := answers[0]
	if first.NodesUsed != 2 {
		t.Errorf("nodes_used %d, want 2", first.NodesUsed)
	}
	for i, a := range answers {
		if a.Planner != first.Planner || a.XML != first.XML || a.NodesUsed != first.NodesUsed {
			t.Fatalf("call %d answered (%s, %d nodes), call 0 (%s, %d nodes)", i, a.Planner, a.NodesUsed, first.Planner, first.NodesUsed)
		}
		for _, v := range a.Variants {
			if strings.Contains(v.Err, "context") {
				t.Errorf("call %d: variant %s reports %q", i, v.Variant, v.Err)
			}
		}
	}

	req.NoCache = false
	resp, body := postJSON(t, ts.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached repeat: status %d: %s", resp.StatusCode, body)
	}
	var hit PlanResponse
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("repeat without no_cache not served from cache")
	}
	if hit.XML != first.XML || hit.Planner != first.Planner {
		t.Errorf("cache holds (%s), the fresh runs answered (%s)", hit.Planner, first.Planner)
	}
}
