package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/lru"
	"adept/internal/model"
	"adept/internal/workload"
)

// CacheKey is the content address of a plan request: a hex SHA-256 digest.
type CacheKey string

// keyScheme opens every key and names its encoding; changing what a key
// covers, or how, means changing the tag, so keys minted under different
// schemes can never meet (in a peer's cache, in a retained response).
const keyScheme = "adept/plan-key/v2\x00"

// planKey is the one key function: the content address of a planning run
// is SHA-256(scheme tag ‖ planner ‖ source digest ‖ costs ‖ wapp ‖
// demand) — every input that changes the planning outcome, the planner
// name length-prefixed and every float as its fixed-width bits, so the
// encoding is injective. The platform enters only through source, the
// digest of whatever names it in the request:
//
//   - scenario: scenario.Spec.Digest, computed from the ~100-byte spec
//     and never from the nodes it generates;
//   - platform_name: platform.Platform.Digest of the registered content,
//     computed once when it was written (Registry.Resident);
//   - inline platform: the same digest, streamed over the decoded nodes.
//
// A registered platform and an inline copy of it therefore share a key; a
// scenario and an inline copy of what it generates do not (the two digests
// are domain-separated), they only plan the same.
func planKey(planner string, source [sha256.Size]byte, costs model.Costs, wapp float64, demand workload.Demand) CacheKey {
	buf := make([]byte, 0, 256)
	buf = append(buf, keyScheme...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(planner)))
	buf = append(buf, planner...)
	buf = append(buf, source[:]...)
	for _, v := range [...]float64{
		costs.AgentWreq, costs.AgentWfix, costs.AgentWsel, costs.ServerWpre,
		costs.AgentSreq, costs.AgentSrep, costs.ServerSreq, costs.ServerSrep,
		wapp, float64(demand),
	} {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return CacheKey(hex.EncodeToString(sum[:]))
}

// KeyFor computes the content address of (planner, request) from the
// request's platform itself — the key the daemon reports for the same
// platform sent inline or registered under a name.
func KeyFor(planner string, req core.Request) (CacheKey, error) {
	if req.Platform == nil {
		return "", errors.New("service: cache key: nil platform")
	}
	return planKey(planner, req.Platform.Digest(), req.Costs, req.Wapp, req.Demand), nil
}

// CachedPlan is the immutable rendered form of a plan as stored in the
// cache: the plan itself (a private clone, to be treated as read-only),
// the deployment XML and hierarchy stats precomputed once at Render time,
// and what a response reports about the platform the plan was made on.
// Hot cache hits are answered entirely from this struct: concurrent
// readers never touch a shared mutable *core.Plan, and a hit never needs
// the platform — which for a scenario request does not exist until a miss
// generates it.
type CachedPlan struct {
	Plan  *core.Plan
	XML   string
	Stats hierarchy.Stats
	// PoolNodes is the size of the pool the planner drew from, and
	// MinLinkBandwidth/MaxLinkBandwidth its effective link-bandwidth range.
	PoolNodes        int
	MinLinkBandwidth float64
	MaxLinkBandwidth float64
}

// errRenderPlan marks a failure to render a successfully planned
// deployment — a daemon-side fault the HTTP layer maps to 500, never a
// property of the client's request.
var errRenderPlan = errors.New("service: render plan")

// Render clones plan and precomputes its XML, its hierarchy stats and the
// pool figures of the request it was planned for — read off the columns
// when the pool came in columnar form — producing the immutable entry the
// cache stores. The clone isolates the cache from any later mutation of the
// caller's plan.
func Render(plan *core.Plan, req core.Request) (*CachedPlan, error) {
	xml, err := plan.XML()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errRenderPlan, err)
	}
	cp := *plan
	cp.Hierarchy = plan.Hierarchy.Clone()
	entry := &CachedPlan{Plan: &cp, XML: xml, Stats: plan.Hierarchy.ComputeStats()}
	if c := req.Columns; c != nil {
		entry.PoolNodes = c.Len()
		entry.MinLinkBandwidth, entry.MaxLinkBandwidth = c.LinkRange()
	} else {
		entry.PoolNodes = len(req.Platform.Nodes)
		entry.MinLinkBandwidth, entry.MaxLinkBandwidth = req.Platform.LinkRange()
	}
	return entry, nil
}

// defaultCacheShards is the segment count of the sharded cache. Sixteen
// stripes keep lock hold times independent across the digest space at any
// worker count the daemon realistically runs with.
const defaultCacheShards = 16

// PlanCache is a content-addressed, LRU-evicting plan cache. Identical
// requests (same platform source, costs, Wapp, demand, planner; see
// planKey) hash to the same key and are answered without re-planning; any
// change to any input produces a different key and therefore a miss.
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
