package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/workload"
)

func testRequest(t *testing.T, seed int64) core.Request {
	t.Helper()
	return core.Request{
		Platform: uniformPool("cache-test", 12, seed),
		Costs:    model.DIETDefaults(),
		Wapp:     workload.DGEMM{N: 310}.MFlop(),
	}
}

func TestKeyForDeterministic(t *testing.T) {
	req := testRequest(t, 1)
	k1, err := KeyFor("heuristic", req)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyFor("heuristic", req)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("identical requests hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a hex sha256", k1)
	}
}

// TestKeyForSensitivity: the key is a content address. Every input that
// can change the planning outcome moves it — the planner, each field of
// the platform down to the order of its nodes, each Table 3 cost, the
// service cost, the demand — and the encoding keeps strings apart, so no
// two different requests meet in one cache entry.
func TestKeyForSensitivity(t *testing.T) {
	base := func() core.Request {
		r := testRequest(t, 1)
		r.Platform.Nodes[0].Name, r.Platform.Nodes[1].Name = "a", "bc"
		return r
	}
	baseKey, err := KeyFor("heuristic", base())
	if err != nil {
		t.Fatal(err)
	}

	type mutation func(planner *string, r *core.Request)
	cases := map[string]mutation{
		"planner":        func(p *string, _ *core.Request) { *p = "star" },
		"wapp":           func(_ *string, r *core.Request) { r.Wapp = workload.DGEMM{N: 311}.MFlop() },
		"demand":         func(_ *string, r *core.Request) { r.Demand = 50 },
		"platform name":  func(_ *string, r *core.Request) { r.Platform.Name += "x" },
		"bandwidth":      func(_ *string, r *core.Request) { r.Platform.Bandwidth++ },
		"node name":      func(_ *string, r *core.Request) { r.Platform.Nodes[5].Name += "x" },
		"node power":     func(_ *string, r *core.Request) { r.Platform.Nodes[11].Power++ },
		"node link":      func(_ *string, r *core.Request) { r.Platform.Nodes[3].LinkBandwidth = 10 },
		"node order":     func(_ *string, r *core.Request) { n := r.Platform.Nodes; n[0], n[1] = n[1], n[0] },
		"node dropped":   func(_ *string, r *core.Request) { r.Platform.Nodes = r.Platform.Nodes[:11] },
		"name boundary":  func(_ *string, r *core.Request) { r.Platform.Nodes[0].Name, r.Platform.Nodes[1].Name = "ab", "c" },
		"name separator": func(_ *string, r *core.Request) { r.Platform.Nodes[0].Name = "a\x00\x00\x00\x00\x00\x00\x00\x02bc" },
	}
	// Each cost, by reflection: a field added to model.Costs and forgotten
	// in planKey fails here.
	costs := reflect.TypeOf(model.Costs{})
	for i := 0; i < costs.NumField(); i++ {
		i := i
		cases["cost "+costs.Field(i).Name] = func(_ *string, r *core.Request) {
			f := reflect.ValueOf(&r.Costs).Elem().Field(i)
			f.SetFloat(f.Float()*2 + 1)
		}
	}
	seen := map[CacheKey]string{baseKey: "the base request"}
	for name, mutate := range cases {
		planner, req := "heuristic", base()
		mutate(&planner, &req)
		k, err := KeyFor(planner, req)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := seen[k]; dup {
			t.Errorf("%s: same key as %s", name, other)
		}
		seen[k] = name
	}
}

func mustRender(t *testing.T, plan *core.Plan, req core.Request) *CachedPlan {
	t.Helper()
	entry, err := Render(plan, req, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

func TestCacheHitOnIdenticalRequest(t *testing.T) {
	cache, err := NewPlanCache(4)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, 2)
	key, err := KeyFor("heuristic", req)
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := cache.Lookup(key); ok {
		t.Fatal("hit on empty cache")
	}
	cache.NoteMiss(key)
	plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, mustRender(t, plan, req))

	// An identical request re-hashes to the same key and hits.
	key2, err := KeyFor("heuristic", testRequest(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Lookup(key2)
	if !ok {
		t.Fatal("identical request missed")
	}
	if got.Plan.Eval.Rho != plan.Eval.Rho {
		t.Errorf("hit rho %g != planned rho %g", got.Plan.Eval.Rho, plan.Eval.Rho)
	}
	wantXML, err := plan.XML()
	if err != nil {
		t.Fatal(err)
	}
	if got.XML != wantXML {
		t.Error("pre-rendered XML differs from plan.XML()")
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// The cached entry must be isolated from the plan the planner handed
// over: mutating the original hierarchy after Put cannot corrupt what
// other goroutines read back, and the entry keeps no hierarchy of its own
// (the XML and the stats are all a response reads of the tree).
func TestCacheEntryIsolatedFromCallerPlan(t *testing.T) {
	cache, err := NewPlanCache(4)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, 5)
	plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	key, err := KeyFor("heuristic", req)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, mustRender(t, plan, req))

	stats := plan.Hierarchy.ComputeStats()
	// Vandalise the caller's copy: a new agent level under the root.
	if err := plan.Hierarchy.SetBacking(plan.Hierarchy.Root(), "vandal", 1); err != nil {
		t.Fatal(err)
	}
	leaf := plan.Hierarchy.Servers()[0]
	if err := plan.Hierarchy.PromoteToAgent(leaf); err != nil {
		t.Fatal(err)
	}
	if plan.Hierarchy.ComputeStats() == stats {
		t.Fatal("vandalism left the caller's stats as they were")
	}
	got, ok := cache.Lookup(key)
	if !ok {
		t.Fatal("entry missing")
	}
	if got.Stats != stats {
		t.Errorf("cached stats mutated: %+v, want %+v", got.Stats, stats)
	}
	if strings.Contains(got.XML, "vandal") {
		t.Error("caller mutation leaked into cached XML")
	}
	if got.Plan.Hierarchy != nil {
		t.Error("cached entry holds a hierarchy")
	}
}

func TestCacheMissOnChangedWapp(t *testing.T) {
	cache, err := NewPlanCache(4)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, 3)
	key, err := KeyFor("heuristic", req)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewHeuristic().PlanContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, mustRender(t, plan, req))

	changed := req
	changed.Wapp = workload.DGEMM{N: 500}.MFlop()
	changedKey, err := KeyFor("heuristic", changed)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Lookup(changedKey); ok {
		t.Error("changed-Wapp request hit the cache")
	}
}

// stubEntry builds a minimal rendered entry for cache-mechanics tests
// that never look inside the plan.
func stubEntry() *CachedPlan {
	return &CachedPlan{Plan: &core.Plan{Planner: "stub"}}
}

// digestKey is a key shaped like the daemon's: a hex SHA-256 digest.
func digestKey(i int) CacheKey {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return CacheKey(hex.EncodeToString(sum[:]))
}

// A cache of N holds N: after N distinct Puts every one of them is there,
// and the N+1st evicts exactly the least recently *used* key — a Lookup
// refreshes recency — whatever the digests look like (a cache split into
// per-stripe LRUs by digest prefix does neither).
func TestCacheHoldsItsCapacityAndEvictsLRU(t *testing.T) {
	for _, n := range []int{2, 100, 256} {
		cache, err := NewPlanCache(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			cache.Put(digestKey(i), stubEntry())
		}
		if cache.Len() != n {
			t.Fatalf("capacity %d: %d distinct puts left %d entries", n, n, cache.Len())
		}
		// Look every key up, oldest last: key 0 is now the most recently
		// used and key n-1 the least.
		for i := n - 1; i >= 0; i-- {
			if _, ok := cache.Lookup(digestKey(i)); !ok {
				t.Fatalf("capacity %d: key %d of %d evicted below capacity", n, i, n)
			}
		}
		cache.Put(digestKey(n), stubEntry())
		if cache.Len() != n {
			t.Errorf("capacity %d: len = %d after one put past capacity", n, cache.Len())
		}
		for i := 0; i <= n; i++ {
			if got, want := cache.Contains(digestKey(i)), i != n-1; got != want {
				t.Errorf("capacity %d: after the put past capacity, key %d cached = %v, want %v", n, i, got, want)
			}
		}
	}
}

// Under a flood of distinct SHA-256-style keys the cache stays within its
// global capacity.
func TestCacheBoundedUnderUniformKeys(t *testing.T) {
	cache, err := NewPlanCache(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		cache.Put(digestKey(i), stubEntry())
	}
	if n := cache.Len(); n != 64 {
		t.Errorf("len = %d, want the capacity, 64", n)
	}
}

func TestCacheRejectsBadCapacity(t *testing.T) {
	if _, err := NewPlanCache(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewPlanCache(-1); err == nil {
		t.Error("capacity -1 accepted")
	}
}
