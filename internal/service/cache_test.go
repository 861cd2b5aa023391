package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/workload"
)

func testRequest(t *testing.T, seed int64) core.Request {
	t.Helper()
	plat, err := platform.Generate(platform.GenSpec{
		Name: "cache-test", N: 12, Bandwidth: 100, MinPower: 100, MaxPower: 800, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return core.Request{
		Platform: plat,
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

func mustRender(t *testing.T, plan *core.Plan, plat *platform.Platform) *CachedPlan {
	t.Helper()
	entry, err := Render(plan, core.Request{Platform: plat})
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

	if _, ok := cache.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	plan, err := core.NewHeuristic().Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, mustRender(t, plan, req.Platform))

	// An identical request re-hashes to the same key and hits.
	key2, err := KeyFor("heuristic", testRequest(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get(key2)
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
// other goroutines read back.
func TestCacheEntryIsolatedFromCallerPlan(t *testing.T) {
	cache, err := NewPlanCache(4)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, 5)
	plan, err := core.NewHeuristic().Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	key, err := KeyFor("heuristic", req)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, mustRender(t, plan, req.Platform))

	agents := plan.Hierarchy.ComputeStats().Agents
	// Vandalise the caller's copy.
	if err := plan.Hierarchy.SetBacking(plan.Hierarchy.Root(), "vandal", 1); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get(key)
	if !ok {
		t.Fatal("entry missing")
	}
	if got.Stats.Agents != agents {
		t.Errorf("cached stats mutated: agents %d, want %d", got.Stats.Agents, agents)
	}
	for _, n := range got.Plan.Hierarchy.Nodes() {
		if n.Name == "vandal" {
			t.Fatal("caller mutation leaked into cached hierarchy")
		}
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
	plan, err := core.NewHeuristic().Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, mustRender(t, plan, req.Platform))

	changed := req
	changed.Wapp = workload.DGEMM{N: 500}.MFlop()
	changedKey, err := KeyFor("heuristic", changed)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(changedKey); ok {
		t.Error("changed-Wapp request hit the cache")
	}
}

// stubEntry builds a minimal rendered entry for cache-mechanics tests
// that never look inside the plan.
func stubEntry() *CachedPlan {
	return &CachedPlan{Plan: &core.Plan{Planner: "stub"}}
}

// A single-shard cache behaves as one global LRU: the classic recency/
// eviction contract, deterministic because every key shares the stripe.
func TestCacheLRUEvictionSingleShard(t *testing.T) {
	cache, err := newPlanCacheShards(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put("a", stubEntry())
	cache.Put("b", stubEntry())
	// Touch "a" so "b" becomes least recently used.
	if _, ok := cache.Get("a"); !ok {
		t.Fatal("a missing")
	}
	cache.Put("c", stubEntry()) // evicts "b"

	if cache.Len() != 2 {
		t.Errorf("len = %d, want 2", cache.Len())
	}
	if !cache.Contains("a") {
		t.Error("recently used entry evicted")
	}
	if cache.Contains("b") {
		t.Error("LRU entry survived eviction")
	}
	if !cache.Contains("c") {
		t.Error("new entry missing")
	}
}

// shardKey fabricates a hex key routed to the given shard index.
func shardKey(t *testing.T, c *PlanCache, shard, n int) CacheKey {
	t.Helper()
	key := CacheKey(fmt.Sprintf("%02x%06d", shard, n))
	if got := c.shard(key); got != &c.shards[shard&int(c.mask)] {
		t.Fatalf("key %q not routed to shard %d", key, shard)
	}
	return key
}

// Eviction and recency are per shard: filling one stripe past its slice
// of the capacity evicts only within that stripe and respects LRU order
// there, while other stripes are untouched.
func TestCacheShardEvictionAndRecency(t *testing.T) {
	cache, err := newPlanCacheShards(16, 4) // 4 shards x 4 entries
	if err != nil {
		t.Fatal(err)
	}
	if cache.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", cache.Shards())
	}

	// Park one resident in shard 1; it must survive shard 0 churn.
	resident := shardKey(t, cache, 1, 0)
	cache.Put(resident, stubEntry())

	keys := make([]CacheKey, 5)
	for i := range keys {
		keys[i] = shardKey(t, cache, 0, i)
	}
	for _, k := range keys[:4] {
		cache.Put(k, stubEntry())
	}
	// Refresh keys[0] so keys[1] is shard 0's LRU victim.
	if _, ok := cache.Get(keys[0]); !ok {
		t.Fatal("keys[0] missing")
	}
	cache.Put(keys[4], stubEntry())

	if cache.Contains(keys[1]) {
		t.Error("shard-LRU victim survived")
	}
	for _, k := range []CacheKey{keys[0], keys[2], keys[3], keys[4]} {
		if !cache.Contains(k) {
			t.Errorf("key %s evicted, want resident", k)
		}
	}
	if !cache.Contains(resident) {
		t.Error("churn in shard 0 evicted shard 1's resident")
	}
	if cache.Len() != 5 {
		t.Errorf("len = %d, want 5", cache.Len())
	}
}

// The shard count rounds down to a power of two and never exceeds the
// capacity, so every stripe holds at least one entry; total occupancy
// never exceeds the configured capacity under uniform keys.
func TestCacheShardSizing(t *testing.T) {
	cases := []struct {
		capacity, shards, want int
	}{
		{256, 16, 16},
		{10, 16, 8},
		{1, 16, 1},
		{3, 4, 2},
		{7, 7, 4},
	}
	for _, tc := range cases {
		c, err := newPlanCacheShards(tc.capacity, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Shards(); got != tc.want {
			t.Errorf("cap %d shards %d: got %d shards, want %d", tc.capacity, tc.shards, got, tc.want)
		}
		total := 0
		for i := range c.shards {
			if c.shards[i].plans.Cap() < 1 {
				t.Errorf("cap %d shards %d: shard %d has capacity %d", tc.capacity, tc.shards, i, c.shards[i].plans.Cap())
			}
			total += c.shards[i].plans.Cap()
		}
		if total != tc.capacity {
			t.Errorf("cap %d shards %d: shard capacities sum to %d", tc.capacity, tc.shards, total)
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
		sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		cache.Put(CacheKey(hex.EncodeToString(sum[:])), stubEntry())
	}
	if n := cache.Len(); n > 64 {
		t.Errorf("len = %d, exceeds capacity 64", n)
	}
}

// NewPlanCache keeps a floor of entries per shard: small caches shrink
// the shard count rather than degenerate into single-entry stripes that
// thrash on digest collisions.
func TestCacheDefaultShardSizingFloorsPerShardCapacity(t *testing.T) {
	cases := []struct{ capacity, wantShards int }{
		{256, 16},
		{128, 16},
		{64, 8},
		{16, 2},
		{8, 1},
		{1, 1},
	}
	for _, tc := range cases {
		c, err := NewPlanCache(tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Shards(); got != tc.wantShards {
			t.Errorf("capacity %d: %d shards, want %d", tc.capacity, got, tc.wantShards)
		}
		for i := range c.shards {
			if tc.capacity >= minShardCapacity && c.shards[i].plans.Cap() < minShardCapacity {
				t.Errorf("capacity %d: shard %d holds only %d entries", tc.capacity, i, c.shards[i].plans.Cap())
			}
		}
	}
}

func TestCacheRejectsBadCapacity(t *testing.T) {
	if _, err := NewPlanCache(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := newPlanCacheShards(4, 0); err == nil {
		t.Error("shard count 0 accepted")
	}
}
