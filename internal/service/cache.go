package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/lru"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/workload"
)

// cacheKeyInput is the canonical form hashed into a cache key. JSON
// marshalling of a struct emits fields in declaration order, so the
// encoding — and therefore the digest — is deterministic for equal
// inputs. Every field that changes the planning outcome is present:
// the planner, the full platform (names, powers, order, bandwidth),
// the Table 3 costs, the application cost, and the demand cap.
type cacheKeyInput struct {
	Planner  string             `json:"planner"`
	Platform *platform.Platform `json:"platform"`
	Costs    model.Costs        `json:"costs"`
	Wapp     float64            `json:"wapp"`
	Demand   workload.Demand    `json:"demand"`
}

// CacheKey is the content address of a plan request: a hex SHA-256 digest.
type CacheKey string

// KeyFor computes the content address of (planner, request).
func KeyFor(planner string, req core.Request) (CacheKey, error) {
	data, err := json.Marshal(cacheKeyInput{
		Planner:  planner,
		Platform: req.Platform,
		Costs:    req.Costs,
		Wapp:     req.Wapp,
		Demand:   req.Demand,
	})
	if err != nil {
		return "", fmt.Errorf("service: cache key: %w", err)
	}
	sum := sha256.Sum256(data)
	return CacheKey(hex.EncodeToString(sum[:])), nil
}

// CachedPlan is the immutable rendered form of a plan as stored in the
// cache: the plan itself (a private clone, to be treated as read-only),
// plus the deployment XML and hierarchy stats precomputed once at Render
// time. Hot cache hits are answered entirely from this struct, so
// concurrent readers never touch a shared mutable *core.Plan — the
// pre-sharding cache handed the same pointer to every caller, and the
// handlers then ran XML marshalling and stats walks on it from many
// goroutines at once.
type CachedPlan struct {
	Plan  *core.Plan
	XML   string
	Stats hierarchy.Stats
}

// errRenderPlan marks a failure to render a successfully planned
// deployment — a daemon-side fault the HTTP layer maps to 500, never a
// property of the client's request.
var errRenderPlan = errors.New("service: render plan")

// Render clones plan and precomputes its XML and hierarchy stats,
// producing the immutable entry the cache stores. The clone isolates the
// cache from any later mutation of the caller's plan.
func Render(plan *core.Plan) (*CachedPlan, error) {
	xml, err := plan.XML()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errRenderPlan, err)
	}
	stats := plan.Hierarchy.ComputeStats()
	cp := *plan
	cp.Hierarchy = plan.Hierarchy.Clone()
	return &CachedPlan{Plan: &cp, XML: xml, Stats: stats}, nil
}

// defaultCacheShards is the segment count of the sharded cache. Sixteen
// stripes keep lock hold times independent across the digest space at any
// worker count the daemon realistically runs with.
const defaultCacheShards = 16

// PlanCache is a content-addressed, LRU-evicting plan cache. Identical
// requests (same platform, costs, Wapp, demand, planner) hash to the same
// key and are answered without re-planning; any change to any input
// produces a different key and therefore a miss.
//
// The cache is sharded into power-of-two lock-striped segments selected
// by the leading byte of the digest, so concurrent hot hits on different
// keys do not serialise on one mutex. Capacity is split evenly across
// shards and eviction is LRU per shard — with SHA-256 keys the shards
// fill uniformly, so the global behaviour approximates a single LRU.
//
// Entries are immutable once stored — a content address never goes stale
// — which is also what lets internal/cluster shard them across processes
// by digest.
type PlanCache struct {
	shards []cacheShard
	mask   uint32
}

type cacheShard struct {
	mu     sync.Mutex
	plans  lru.Cache[CacheKey, *CachedPlan]
	hits   uint64
	misses uint64
}

// minShardCapacity floors the entries per shard: a small cache split into
// single-entry stripes would thrash whenever two hot digests collide on a
// shard, so the shard count shrinks before per-shard capacity does.
const minShardCapacity = 8

// NewPlanCache builds a cache holding at most capacity plans across the
// default shard count (reduced for small capacities so every shard keeps
// a useful LRU depth); capacity must be positive.
func NewPlanCache(capacity int) (*PlanCache, error) {
	shards := defaultCacheShards
	for shards > 1 && capacity/shards < minShardCapacity {
		shards /= 2
	}
	return newPlanCacheShards(capacity, shards)
}

// newPlanCacheShards builds a cache with an explicit shard count (rounded
// down to a power of two, and never above capacity so every shard holds
// at least one entry). Tests use a single shard for deterministic global
// LRU order.
func newPlanCacheShards(capacity, shards int) (*PlanCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("service: cache capacity must be positive, got %d", capacity)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("service: cache shard count must be positive, got %d", shards)
	}
	for shards > capacity {
		shards /= 2
	}
	n := 1
	for n*2 <= shards {
		n *= 2
	}
	c := &PlanCache{shards: make([]cacheShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		c.shards[i].plans.Init(per)
	}
	return c, nil
}

// shard selects the segment for key: the digest's leading byte for hex
// keys (uniform by construction for SHA-256 addresses), an FNV hash
// otherwise.
func (c *PlanCache) shard(key CacheKey) *cacheShard {
	if len(key) >= 2 {
		if b, err := hex.DecodeString(string(key[:2])); err == nil {
			return &c.shards[uint32(b[0])&c.mask]
		}
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return &c.shards[h.Sum32()&c.mask]
}

// Get returns the cached rendered plan for key, recording a hit or miss
// and refreshing the entry's recency on a hit. The returned entry is
// shared between callers and must be treated as read-only.
func (c *PlanCache) Get(key CacheKey) (*CachedPlan, bool) {
	entry, ok := c.Lookup(key)
	if !ok {
		c.NoteMiss(key)
	}
	return entry, ok
}

// Lookup is Get without the miss accounting: a hit is recorded (and
// recency refreshed), an absence is reported silently. The serving layer
// uses it so that a thundering herd coalescing onto one flight charges
// one miss — attributed where the planning run happens — rather than N.
func (c *PlanCache) Lookup(key CacheKey) (*CachedPlan, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	plan, ok := s.plans.Get(key)
	if ok {
		s.hits++
	}
	return plan, ok
}

// NoteMiss charges one miss against key's shard.
func (c *PlanCache) NoteMiss(key CacheKey) {
	s := c.shard(key)
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
}

// Put stores the rendered plan under key, evicting the least recently
// used entry of the key's shard when that shard is at capacity. Storing
// an existing key refreshes its value and recency.
func (c *PlanCache) Put(key CacheKey, plan *CachedPlan) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plans.Put(key, plan)
}

// Contains reports whether key is cached without touching recency or the
// hit/miss counters.
func (c *PlanCache) Contains(key CacheKey) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plans.Contains(key)
}

// eachShard calls f on every shard in index order, holding that shard's
// lock.
func (c *PlanCache) eachShard(f func(i int, s *cacheShard)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		f(i, s)
		s.mu.Unlock()
	}
}

// Len returns the number of cached plans across all shards.
func (c *PlanCache) Len() int {
	n := 0
	c.eachShard(func(_ int, s *cacheShard) { n += s.plans.Len() })
	return n
}

// Shards returns the shard count.
func (c *PlanCache) Shards() int { return len(c.shards) }

// Keys returns the content addresses currently cached, in shard order
// (most recently used first within a shard). The cluster status endpoint uses it to
// report how many locally cached keys each ring peer owns.
func (c *PlanCache) Keys() []CacheKey {
	keys := make([]CacheKey, 0, c.Len())
	c.eachShard(func(_ int, s *cacheShard) { keys = append(keys, s.plans.Keys()...) })
	return keys
}

// ShardSizes returns the entry count per shard, indexed by shard. The
// metrics exposition uses it to make uneven shard fill visible.
func (c *PlanCache) ShardSizes() []int {
	sizes := make([]int, len(c.shards))
	c.eachShard(func(i int, s *cacheShard) { sizes[i] = s.plans.Len() })
	return sizes
}

// Stats returns the cumulative hit and miss counts summed over shards.
func (c *PlanCache) Stats() (hits, misses uint64) {
	c.eachShard(func(_ int, s *cacheShard) {
		hits += s.hits
		misses += s.misses
	})
	return hits, misses
}
