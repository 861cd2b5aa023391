package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// planOK posts body to /v1/plan and decodes the 200 it must get.
func planOK(t *testing.T, url string, body any) PlanResponse {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestKeyPerRequestSource: what the reported key covers, source by source.
// An inline platform and the same platform registered under a name are one
// address, and it is the one KeyFor computes; a scenario is addressed by
// its canonical spec, apart from any platform.
func TestKeyPerRequestSource(t *testing.T) {
	srv, ts := newTestServer(t)
	plat := testPlatform(20)
	inline := planOK(t, ts.URL, PlanRequest{Platform: plat, DgemmN: 310})
	want, err := KeyFor("heuristic", core.Request{
		Platform: plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if inline.Key != string(want) {
		t.Errorf("inline request keyed %s, KeyFor says %s", inline.Key, want)
	}
	if err := srv.Registry().Put("twenty", plat); err != nil {
		t.Fatal(err)
	}
	byName := planOK(t, ts.URL, PlanRequest{PlatformName: "twenty", DgemmN: 310})
	if byName.Key != inline.Key || !byName.Cached {
		t.Errorf("registered copy keyed %s (cached=%v), inline %s", byName.Key, byName.Cached, inline.Key)
	}

	bare := scenario.Spec{Family: scenario.Bimodal, N: 20, Seed: 4}
	explicit := bare
	explicit.Name, explicit.Bandwidth = "bimodal-n20-s4", 100
	first := planOK(t, ts.URL, PlanRequest{Scenario: &bare})
	second := planOK(t, ts.URL, PlanRequest{Scenario: &explicit})
	if second.Key != first.Key || !second.Cached {
		t.Errorf("spec with explicit defaults keyed %s (cached=%v), bare spec %s", second.Key, second.Cached, first.Key)
	}
	generated, err := bare.Generate()
	if err != nil {
		t.Fatal(err)
	}
	copied := planOK(t, ts.URL, PlanRequest{Platform: generated})
	if copied.Key == first.Key || copied.Cached {
		t.Error("an inline copy of a generated platform shares the scenario's entry: the digests are not domain-separated")
	}
	if copied.XML != first.XML {
		t.Error("a scenario and an inline copy of what it generates plan differently")
	}
}

// TestRegistryDigest: the digest stored beside a registered platform is
// its content digest whichever way the entry arrived, and moves when the
// content does.
func TestRegistryDigest(t *testing.T) {
	plat := testPlatform(50)
	want := plat.Digest()
	digestOf := func(r *Registry) [32]byte {
		t.Helper()
		p, d, ok := r.Resident("p")
		if !ok || p.Len() != len(plat.Nodes) {
			t.Fatalf("platform not resident (ok=%v)", ok)
		}
		return d
	}

	dir := t.TempDir()
	put := NewRegistry()
	if err := put.PersistTo(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := put.PutIfMatch("p", plat, nil); err != nil {
		t.Fatal(err)
	}
	if digestOf(put) != want {
		t.Error("PutIfMatch stored a digest other than the content's")
	}
	remote := NewRegistry()
	if _, err := remote.ApplyRemote(RegistryUpdate{Name: "p", Version: 3, Platform: plat}); err != nil {
		t.Fatal(err)
	}
	if digestOf(remote) != want {
		t.Error("ApplyRemote stored a digest other than the content's")
	}
	loaded := NewRegistry()
	if _, err := loaded.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if digestOf(loaded) != want {
		t.Error("the digest does not survive a journal round trip")
	}

	changed := plat.Clone()
	changed.Nodes[17].Power++
	if _, err := put.PutIfMatch("p", changed, nil); err != nil {
		t.Fatal(err)
	}
	if digestOf(put) == want {
		t.Error("one changed power left the stored digest unchanged")
	}
}

// TestScenarioHitMaterialisesNothing: a hit on a scenario request costs
// the same whatever the fleet's size — it is addressed by the spec and
// answered from the cache, and no node is generated, validated or hashed.
// Generating alone would be one allocation per node.
func TestScenarioHitMaterialisesNothing(t *testing.T) {
	srv, err := New(Config{SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	handler := srv.Handler()
	const bound = 400
	for _, n := range []int{2_000, 200_000} {
		body, err := json.Marshal(PlanRequest{
			Scenario: &scenario.Spec{Family: scenario.ClusterGrid, N: n, Seed: 7, PowerLevels: 8},
			// A bounded demand keeps the deployment — and with it the
			// response both sizes encode — a few dozen nodes.
			Demand: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		var last PlanResponse
		post := func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("n=%d: status %d: %s", n, rec.Code, rec.Body.String())
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &last); err != nil {
				t.Fatal(err)
			}
		}
		post() // prime: the one miss
		if last.Cached || last.PoolNodes != n {
			t.Fatalf("n=%d: priming request answered cached=%v pool_nodes=%d", n, last.Cached, last.PoolNodes)
		}
		allocs := testing.AllocsPerRun(20, post)
		t.Logf("n=%d: %.0f allocations per hit", n, allocs)
		if !last.Cached || last.PoolNodes != n || last.MinLinkBandwidth != 10 || last.MaxLinkBandwidth != 100 {
			t.Errorf("n=%d: hit answered cached=%v pool_nodes=%d links [%g, %g]", n, last.Cached, last.PoolNodes, last.MinLinkBandwidth, last.MaxLinkBandwidth)
		}
		if allocs > bound {
			t.Errorf("n=%d: a hit made %.0f allocations, want under %d at any pool size", n, allocs, bound)
		}
	}
}

// TestScenarioHerdGeneratesOnce extends TestPlanCoalescesThunderingHerd to
// the request shape it matters most for: the key is known before anything
// is generated, so concurrent identical cold scenario requests share one
// flight, and generation — which runs inside it — happens once.
func TestScenarioHerdGeneratesOnce(t *testing.T) {
	srv, ts := newTestServer(t)
	data, err := json.Marshal(PlanRequest{
		Scenario: &scenario.Spec{Family: scenario.FatTree, N: 30_000, Seed: 2, PowerLevels: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	start := make(chan struct{})
	keys := make([]string, clients)
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
			var pr PlanResponse
			errs[i] = json.NewDecoder(resp.Body).Decode(&pr)
			keys[i] = pr.Key
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if keys[i] != keys[0] {
			t.Errorf("client %d keyed %s, client 0 %s", i, keys[i], keys[0])
		}
	}
	if got := srv.pool.Executed(); got != 1 {
		t.Errorf("%d identical cold scenario requests ran %d jobs (generate + plan), want exactly 1", clients, got)
	}
	if _, misses := srv.cache.Stats(); misses != 1 {
		t.Errorf("cache_misses = %d, want 1 for a coalesced herd", misses)
	}
}

// TestLaunchOnHit: the two handlers that launch what was planned need the
// platform itself, and get it even when the plan came from the cache and
// the plan path never held it: /v1/deploy generates a scenario on demand,
// and /v1/autonomic/start reads a registered platform's resident copy.
func TestLaunchOnHit(t *testing.T) {
	srv, ts := newTestServer(t)
	spec := PlanRequest{Scenario: &scenario.Spec{Family: scenario.Bimodal, N: 6, Seed: 1}, Wapp: 5}
	planOK(t, ts.URL, spec) // prime

	resp, body := postJSON(t, ts.URL+"/v1/deploy", DeployRequest{PlanRequest: spec, Clients: 3, DurationMillis: 200})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: status %d: %s", resp.StatusCode, body)
	}
	var dep DeployResponse
	if err := json.Unmarshal(body, &dep); err != nil {
		t.Fatal(err)
	}
	if !dep.Plan.Cached {
		t.Error("deploy re-planned a primed scenario")
	}
	if dep.Completed <= 0 || dep.Failed != 0 {
		t.Errorf("deploy on a scenario hit completed %d, failed %d", dep.Completed, dep.Failed)
	}

	if err := srv.Registry().Put("auto", autonomicPlatform()); err != nil {
		t.Fatal(err)
	}
	byName := PlanRequest{PlatformName: "auto", Wapp: 10}
	planOK(t, ts.URL, byName) // prime
	resp, body = postJSON(t, ts.URL+"/v1/autonomic/start", AutonomicRequest{
		PlanRequest: byName, Backend: "sim", Clients: 4, Cycles: 3, CrashWindows: -1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("autonomic start: status %d: %s", resp.StatusCode, body)
	}
	var started struct {
		Plan PlanResponse `json:"plan"`
	}
	if err := json.Unmarshal(body, &started); err != nil {
		t.Fatal(err)
	}
	if !started.Plan.Cached {
		t.Error("autonomic start re-planned a primed platform")
	}
	var st AutonomicStatus
	waitUntil(t, "the sim session to finish", func() bool {
		getJSON(t, ts.URL+"/v1/autonomic/status", &st)
		return st.Done
	})
	if st.RunErr != "" {
		t.Errorf("control loop over a resident platform: %s", st.RunErr)
	}
}

// TestScenarioSizeCap: a spec is a few dozen bytes whatever its n, so n is
// capped before anything is allocated for it — 400, at once.
func TestScenarioSizeCap(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, n := range []int{maxScenarioNodes + 1, 2_000_000_000} {
		began := time.Now()
		resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Scenario: &scenario.Spec{Family: scenario.Star, N: n}})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the limit") {
			t.Errorf("n=%d: status %d: %s", n, resp.StatusCode, body)
		}
		if took := time.Since(began); took > time.Second {
			t.Errorf("n=%d: refused after %v — something was generated first", n, took)
		}
	}
	if got := srv.pool.Executed(); got != 0 {
		t.Errorf("an oversized spec reached the pool (%d jobs)", got)
	}
	// The cap itself is a legal size: it passes resolve.
	if _, err := srv.resolve(&PlanRequest{Scenario: &scenario.Spec{Family: scenario.Star, N: maxScenarioNodes}}); err != nil {
		t.Errorf("n at the cap refused: %v", err)
	}
}

// TestMissPathFaultsAre400: what only the miss path can find wrong with a
// request — the nodes themselves — is still the request's fault.
func TestMissPathFaultsAre400(t *testing.T) {
	srv, ts := newTestServer(t)
	// One node is a valid platform to register and too small a pool to plan.
	if err := srv.Registry().Put("solo", platform.Homogeneous("solo", 1, 100, 100)); err != nil {
		t.Fatal(err)
	}
	dup := testPlatform(6)
	dup.Nodes[3].Name = dup.Nodes[2].Name
	for name, body := range map[string]PlanRequest{
		"duplicate node name":         {Platform: dup},
		"no_cache, duplicate name":    {Platform: dup, NoCache: true},
		"scenario of negative powers": {Scenario: &scenario.Spec{Family: scenario.Star, N: 8, LeafPower: -200}},
		"registered pool of one":      {PlatformName: "solo"},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/plan", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
	}
}

// TestScenarioPowersOutOfRangeAre400: a spec whose knobs drive the powers
// it generates out of range — negative, or through a spread that overflows
// them to +Inf, or to NaN once quantisation subtracts two infinities — is
// refused as the request's fault, on both sides of the class floor (a pool
// planned per node from its expansion, a pool planned from its columns) and
// whichever planner would have read it. NaN and +Inf used to pass the
// "power <= 0" test: the first was planned and graded the planner's fault
// (422, "power mismatch: deployment says NaN, platform says NaN"), the
// second answered 200 with +Inf in the XML.
func TestScenarioPowersOutOfRangeAre400(t *testing.T) {
	_, ts := newTestServer(t)
	for _, n := range []int{40, 5000} {
		plat := fmt.Sprintf("star-n%d-s1", n)
		for name, tc := range map[string]struct {
			spec scenario.Spec
			want string
		}{
			"negative": {scenario.Spec{LeafPower: -5},
				fmt.Sprintf(`generate scenario: scenario: generated invalid platform: platform %q: node "%s-0000" has non-positive power -40`, plat, plat)},
			"NaN": {scenario.Spec{Spread: 1e308, PowerLevels: 8},
				fmt.Sprintf(`generate scenario: scenario: generated invalid platform: platform %q: node "%s-0000" has non-positive power NaN`, plat, plat)},
			"infinite": {scenario.Spec{Spread: 1e308},
				fmt.Sprintf(`generate scenario: scenario: generated invalid platform: platform %q: node "%s-0004" has non-finite power +Inf`, plat, plat)},
		} {
			tc.spec.Family, tc.spec.N, tc.spec.Seed = scenario.Star, n, 1
			for _, planner := range []string{"heuristic", "star"} {
				resp, data := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Scenario: &tc.spec, Planner: planner})
				var body struct{ Error string }
				if err := json.Unmarshal(data, &body); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusBadRequest || body.Error != tc.want {
					t.Errorf("%s powers, n=%d, planner %s: status %d %q, want 400 %q", name, n, planner, resp.StatusCode, body.Error, tc.want)
				}
			}
		}
	}
}

// TestScenarioKnobsAnswerAsBefore: a quantised scenario is classed as it
// is drawn, through a level table sized by the pool — never by
// power_levels, which the wire leaves unbounded — and a draw the table
// cannot take is generated and planned as it was before the table: every
// answer below, a ~100-byte request each, was recorded at the commit
// before it, status, error text and body (elapsed_ms masked) alike. Levels
// of 2^31 and 2^62 over 30 tiers are a table of 2^36 and 2^67 cells; each
// request allocates what it did then, give or take the classifier's few
// hundred bytes of fixed-size state and the run-to-run noise of the
// handler (the least of five runs is compared, with 2 KiB of slack; not
// under the race detector, which allocates on its own account).
func TestScenarioKnobsAnswerAsBefore(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	handler := srv.Handler()
	post := func(body string) (int, []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	for _, tc := range []struct {
		body   string
		status int
		err    string
		digest string // of the answer, elapsed_ms masked, re-encoded
		alloc  uint64 // bytes a request allocated, the least of five runs; 0: not checked
	}{
		{`{"scenario":{"family":"fat-tree","n":100000,"seed":1,"tiers":30,"power_levels":2147483648},"no_cache":true}`,
			200, "", "372f8f40d2fff7557a3afeba7242ac6f6dc375bc56a0f0b281e15f1bae6c6d05", 88_915_928},
		{`{"scenario":{"family":"fat-tree","n":100000,"seed":1,"tiers":30,"power_levels":4611686018427387904},"no_cache":true}`,
			200, "", "d21ea5536b582cff039f4c457c07311ef3af9701b5f61c30ffb7af8347fdc24b", 88_915_928},
		{`{"scenario":{"family":"cluster-grid","n":100000,"seed":1,"max_power":-5,"power_levels":8}}`,
			400, `generate scenario: scenario: generated invalid platform: platform "cluster-grid-n100000-s1": node "cluster-grid-n100000-s1-0001" has non-positive power NaN`, "", 0},
		{`{"scenario":{"family":"power-law","n":100000,"seed":1,"max_power":-5,"power_levels":8}}`,
			400, `generate scenario: scenario: generated invalid platform: platform "power-law-n100000-s1": node "power-law-n100000-s1-0000" has non-positive power -5`, "", 0},
		{`{"scenario":{"family":"cluster-grid","n":100000,"seed":1,"spread":1e308,"power_levels":8}}`,
			400, `generate scenario: scenario: generated invalid platform: platform "cluster-grid-n100000-s1": node "cluster-grid-n100000-s1-0000" has non-positive power NaN`, "", 0},
		{`{"scenario":{"family":"fat-tree","n":100000,"seed":1,"spread":1e308,"power_levels":8}}`,
			400, `generate scenario: scenario: generated invalid platform: platform "fat-tree-n100000-s1": node "fat-tree-n100000-s1-0000" has non-positive power NaN`, "", 0},
		// A bandwidth near the least subnormal: the uplinks (cluster-grid) and
		// the tapered tiers (fat-tree) on links that round to nothing.
		{`{"scenario":{"family":"cluster-grid","n":100000,"seed":1,"bandwidth_mbps":1e-320,"power_levels":8}}`,
			200, "", "9d3b490cc08b4db8f2ba2b9bbd3d4c8bb4adfdca1bf980910b0015f05b306042", 0},
		{`{"scenario":{"family":"fat-tree","n":100000,"seed":1,"tiers":14,"bandwidth_mbps":1e-320,"power_levels":8}}`,
			200, "", "4e85f127b1d38f1b7e81dbc0a9759ca370fde63745017b138bc3ac434ea2aece", 0},
	} {
		status, data := post(tc.body)
		var answer map[string]any
		if err := json.Unmarshal(data, &answer); err != nil {
			t.Fatalf("%s: %v: %s", tc.body, err, data)
		}
		if msg, _ := answer["error"].(string); status != tc.status || msg != tc.err {
			t.Errorf("%s: status %d %q, want %d %q", tc.body, status, msg, tc.status, tc.err)
		}
		if tc.digest != "" {
			delete(answer, "elapsed_ms")
			masked, err := json.Marshal(answer)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(masked)); got != tc.digest {
				t.Errorf("%s: answer digest %s, want %s: %s", tc.body, got, tc.digest, masked)
			}
		}
		if tc.alloc == 0 || raceDetector {
			continue
		}
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			post(tc.body)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > tc.alloc+2<<10 {
			t.Errorf("%s: a request allocated %d bytes, %d before the level table", tc.body, least, tc.alloc)
		}
	}
}

// TestColdFleetRequestStaysColumnar pins what a cold 100 000-node scenario
// request costs through the handler — fleet_cold's shape, a new seed every
// run so nothing hits: it is planned from its power and link columns, and
// neither a node slice of pool size, nor a name per node, nor a pool-sized
// map is ever built. Materialising the pool is 100 000 allocations and
// 25 MB; the bounds sit at under twice the columnar cost.
func TestColdFleetRequestStaysColumnar(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	handler := srv.Handler()
	families := []scenario.Family{scenario.ClusterGrid, scenario.FatTree}
	seed := int64(0)
	post := func() {
		seed++
		body, err := json.Marshal(PlanRequest{
			Scenario: &scenario.Spec{Family: families[seed%2], N: 100_000, Seed: seed, PowerLevels: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		var resp PlanResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d (%v): %s", seed, rec.Code, err, rec.Body.String())
		}
		if resp.Cached || !resp.ClassPlanned || resp.PoolNodes != 100_000 {
			t.Fatalf("seed %d: cached=%v class_planned=%v pool_nodes=%d: not a cold class-planned fleet request", seed, resp.Cached, resp.ClassPlanned, resp.PoolNodes)
		}
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, post) // one warm-up call, then runs
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("a cold 100k-node request: %.0f allocations, %d KiB", allocs, perRun>>10)
	if allocs >= 5000 {
		t.Errorf("a cold 100k-node request made %.0f allocations, want under 5000: something is built per node", allocs)
	}
	if perRun >= 8<<20 {
		t.Errorf("a cold 100k-node request allocated %d KiB, want under 8 MiB", perRun>>10)
	}
}

// TestGenerationUnderDeadline: generation runs under the request's
// deadline like the planning after it, and a deadline it outlasts is a 504
// with nothing cached.
func TestGenerationUnderDeadline(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{
		Scenario:      &scenario.Spec{Family: scenario.ClusterGrid, N: 400_000, Seed: 1, PowerLevels: 8},
		TimeoutMillis: 1,
		NoCache:       true,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if srv.cache.Len() != 0 {
		t.Error("a run that missed its deadline left a cache entry")
	}
}
