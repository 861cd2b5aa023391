package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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
// cache: the plan's scalar fields (a private copy without its hierarchy,
// to be treated as read-only), the deployment XML and hierarchy stats
// precomputed once at Render time, and what a response reports about the
// platform the plan was made on.
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

// Render precomputes plan's XML, its hierarchy stats and the pool figures
// of the request it was planned for, read off its columns
// (core.Request.Resolve: O(1) on the daemon's requests, which carry them),
// producing the immutable entry the cache stores. The entry keeps a copy
// of the plan's scalar fields with no hierarchy — the XML and the stats
// are all a response reads of the tree — so no later mutation of the
// caller's plan reaches it. The XML is appended into *buf, emptied, which
// is left grown for the next render; the entry holds a copy, never the
// buffer, and nothing of req's columns either, so it outlives the memory
// they were generated in.
func Render(plan *core.Plan, req core.Request, buf *[]byte) (*CachedPlan, error) {
	b, err := plan.Hierarchy.AppendXML((*buf)[:0])
	*buf = b
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errRenderPlan, err)
	}
	if req, err = req.Resolve(); err != nil {
		return nil, fmt.Errorf("%w: %v", errRenderPlan, err)
	}
	cp := *plan
	cp.Hierarchy = nil
	entry := &CachedPlan{Plan: &cp, XML: string(b), Stats: plan.Hierarchy.ComputeStats(), PoolNodes: req.Columns.Len()}
	entry.MinLinkBandwidth, entry.MaxLinkBandwidth = req.Columns.LinkRange()
	return entry, nil
}

// PlanCache is a content-addressed, LRU-evicting plan cache. Identical
// requests (same platform source, costs, Wapp, demand, planner; see
// planKey) hash to the same key and are answered without re-planning; any
// change to any input produces a different key and therefore a miss.
//
// It is one LRU under one mutex: a cache of N plans holds N plans and
// evicts in global least-recently-used order. A lookup holds the lock for
// a map probe and a list splice — tens of nanoseconds against the half
// millisecond of CPU it takes to answer even a hit, nearly all of it
// encoding the answer — which is why one lock is enough.
//
// Entries are immutable once stored — a content address never goes stale
// — which is also what lets internal/cluster shard them across processes
// by digest.
type PlanCache struct {
	mu     sync.Mutex
	plans  lru.Cache[CacheKey, *CachedPlan]
	hits   uint64
	misses uint64
}

// NewPlanCache builds a cache holding at most capacity plans; capacity
// must be positive.
func NewPlanCache(capacity int) (*PlanCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("service: cache capacity must be positive, got %d", capacity)
	}
	c := new(PlanCache)
	c.plans.Init(capacity)
	return c, nil
}

// Lookup returns the cached rendered plan for key, recording a hit and
// refreshing the entry's recency; an absence is reported silently, and
// the caller charges it with NoteMiss. The serving layer splits the two so
// that a thundering herd coalescing onto one flight charges one miss —
// attributed where the planning run happens — rather than N. The returned
// entry is shared between callers and must be treated as read-only.
func (c *PlanCache) Lookup(key CacheKey) (*CachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	plan, ok := c.plans.Get(key)
	if ok {
		c.hits++
	}
	return plan, ok
}

// NoteMiss charges one miss for a key Lookup did not find.
func (c *PlanCache) NoteMiss(CacheKey) {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// Put stores the rendered plan under key, evicting the least recently
// used entry when the cache is at capacity. Storing an existing key
// refreshes its value and recency.
func (c *PlanCache) Put(key CacheKey, plan *CachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans.Put(key, plan)
}

// Contains reports whether key is cached without touching recency or the
// hit/miss counters.
func (c *PlanCache) Contains(key CacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.Contains(key)
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.Len()
}

// Keys returns the content addresses currently cached, most recently used
// first. The cluster status endpoint uses it to report how many locally
// cached keys each ring peer owns.
func (c *PlanCache) Keys() []CacheKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.Keys()
}

// Stats returns the cumulative hit and miss counts.
func (c *PlanCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
