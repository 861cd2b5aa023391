package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adept/internal/lru"
	"adept/internal/obs"
	"adept/internal/service"
)

// Config wires a Node into one adeptd process.
type Config struct {
	// Self is this peer's advertised base URL. It must appear in Peers —
	// every member is configured with the one complete membership list.
	Self string
	// Peers is the full static cluster membership (Self included), as
	// base URLs. Order is irrelevant; every member sorts the same list
	// into the same ring.
	Peers []string
	// Secret is the shared HMAC key signing invalidation webhooks. Empty
	// disables signing and verification (trusted-network mode).
	Secret string
	// ForwardTimeout bounds one forwarded plan exchange and one webhook
	// delivery attempt (default 2s). Kept tight on purpose: blowing the
	// timeout only costs a local replan, while a generous timeout stalls
	// every request routed at a dead peer.
	ForwardTimeout time.Duration
	// RetryBase seeds the exponential backoff between the deliveryAttempts
	// tries of one invalidation webhook (default 100ms: 100ms, 200ms, ...).
	RetryBase time.Duration
	// Registry receives peer invalidations; Cache is consulted for key
	// ownership reporting. Both are the server's own stores.
	Registry *service.Registry
	Cache    *service.PlanCache
	// Client issues all peer HTTP exchanges (http.DefaultClient-alike
	// when nil; tests inject RoundTrippers here).
	Client *http.Client
	// Logger receives peer-layer logs (discard when nil).
	Logger *slog.Logger
}

// defaults for the zero Config values, and the peer layer's fixed limits.
const (
	defaultForwardTimeout = 2 * time.Second
	defaultRetryBase      = 100 * time.Millisecond
	// deliveryAttempts is how many times one invalidation webhook is tried
	// per peer before being dropped (version-checked application makes
	// redelivery and loss both safe).
	deliveryAttempts = 3
	// remoteFillCapacity bounds the LRU of forwarded responses retained
	// locally.
	remoteFillCapacity = 256
	// probeTimeout bounds one /healthz probe issued by the status
	// endpoint.
	probeTimeout = time.Second
	// maxPeerBody bounds how much of a peer response body is read: a
	// plan response for a large platform is a few MB of XML; 64 MB is
	// far above any legitimate exchange.
	maxPeerBody = 64 << 20
	// breakerBase/breakerMax shape the per-peer circuit breaker: after n
	// consecutive failures the peer is skipped for min(base<<(n-1), max).
	breakerBase = 250 * time.Millisecond
	breakerMax  = 15 * time.Second
)

// Node is the peer layer of one adeptd process: it owns the ring, the
// peer HTTP client, the per-peer circuit breakers, the retained-response
// LRU, and the webhook delivery workers. It implements service.Cluster.
type Node struct {
	cfg    Config
	ring   *Ring
	client *http.Client
	logger *slog.Logger

	forwards   atomic.Uint64
	fallbacks  atomic.Uint64
	remoteHits atomic.Uint64
	invSent    atomic.Uint64
	invApplied atomic.Uint64
	peerErrors atomic.Uint64

	healthMu sync.Mutex
	health   map[string]peerHealth // absent = zero value = healthy

	// remote retains forwarded plan responses by content address. Entries
	// are immutable; a hit hands out a private shallow copy.
	remoteMu sync.Mutex
	remote   lru.Cache[service.CacheKey, *service.PlanResponse]

	// now and sleep are injection points for tests; production uses the
	// wall clock. Both are function values, never called at plan-shaping
	// time — the breaker and backoff are serving-layer concerns.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// peerHealth is one peer's passive circuit breaker: consecutive failures
// open it for an exponentially growing window; one success closes it.
type peerHealth struct {
	failures  int
	openUntil time.Time
}

// New validates cfg, builds the ring, and returns a ready Node. The
// returned Node owns background webhook deliveries; Close releases them.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self URL required")
	}
	if cfg.Registry == nil || cfg.Cache == nil {
		return nil, fmt.Errorf("cluster: Registry and Cache stores required")
	}
	ring, err := NewRing(cfg.Peers, DefaultReplicas)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(ring.Peers(), cfg.Self) {
		return nil, fmt.Errorf("cluster: Self %q is not in the peer list %v", cfg.Self, ring.Peers())
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = defaultForwardTimeout
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = defaultRetryBase
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	//adeptvet:allow ctxflow daemon-lifetime lifecycle root for webhook deliveries; there is no caller context to inherit
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:    cfg,
		ring:   ring,
		client: cfg.Client,
		logger: cfg.Logger,
		health: make(map[string]peerHealth, len(ring.Peers())),
		now:    time.Now,
		sleep:  sleepCtx,
		ctx:    ctx,
		cancel: cancel,
	}
	n.remote.Init(remoteFillCapacity)
	return n, nil
}

// Close stops background webhook deliveries and waits for them to drain.
func (n *Node) Close() {
	n.cancel()
	n.wg.Wait()
}

// Ring exposes the node's consistent-hash ring (for status and tests).
func (n *Node) Ring() *Ring { return n.ring }

// Report snapshots the peer counters for the metrics endpoints.
func (n *Node) Report() service.PeerReport {
	return service.PeerReport{
		Peers:                len(n.ring.Peers()),
		Forwards:             n.forwards.Load(),
		Fallbacks:            n.fallbacks.Load(),
		RemoteCacheHits:      n.remoteHits.Load(),
		InvalidationsSent:    n.invSent.Load(),
		InvalidationsApplied: n.invApplied.Load(),
		PeerErrors:           n.peerErrors.Load(),
	}
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the
// full duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// peerOpen reports whether peer's circuit breaker currently blocks
// exchanges with it.
func (n *Node) peerOpen(peer string) bool {
	n.healthMu.Lock()
	defer n.healthMu.Unlock()
	h := n.health[peer]
	return h.failures > 0 && n.now().Before(h.openUntil)
}

// noteFailure records one failed exchange with peer and extends its
// breaker window exponentially (250ms, 500ms, ..., capped at 15s).
func (n *Node) noteFailure(peer string) {
	n.healthMu.Lock()
	defer n.healthMu.Unlock()
	h := n.health[peer]
	h.failures++
	backoff := breakerBase
	for i := 1; i < h.failures && backoff < breakerMax; i++ {
		backoff *= 2
	}
	if backoff > breakerMax {
		backoff = breakerMax
	}
	h.openUntil = n.now().Add(backoff)
	n.health[peer] = h
}

// noteSuccess closes peer's breaker.
func (n *Node) noteSuccess(peer string) {
	n.healthMu.Lock()
	defer n.healthMu.Unlock()
	delete(n.health, peer)
}

// peerFailures reports peer's consecutive failure count (0 = healthy).
func (n *Node) peerFailures(peer string) int {
	n.healthMu.Lock()
	defer n.healthMu.Unlock()
	return n.health[peer].failures
}

// ForwardPlan answers the plan request on the peer owning key, or
// reports ok=false to have the caller plan locally. Self-owned keys
// return immediately; remote-owned keys are answered from the retained
// forwarded-response LRU when possible, else forwarded one hop with the
// loop-prevention header set. Any peer failure — breaker open, transport
// error, non-200 — degrades to local planning and is counted, never
// surfaced to the client.
func (n *Node) ForwardPlan(ctx context.Context, key service.CacheKey, pr *service.PlanRequest) (*service.PlanResponse, bool) {
	owner := n.ring.Owner(string(key))
	if owner == n.cfg.Self {
		return nil, false
	}
	cacheable := !pr.NoCache && !pr.Trace
	if cacheable {
		if resp, ok := n.retained(key); ok {
			n.remoteHits.Add(1)
			return resp, true
		}
	}
	if n.peerOpen(owner) {
		n.fallbacks.Add(1)
		return nil, false
	}
	resp, err := n.forwardOnce(ctx, owner, pr)
	if err != nil {
		n.peerErrors.Add(1)
		n.noteFailure(owner)
		n.fallbacks.Add(1)
		if n.logger.Enabled(ctx, slog.LevelWarn) {
			n.logger.LogAttrs(ctx, slog.LevelWarn, "peer forward failed; planning locally",
				slog.String("peer", owner),
				slog.String("key", string(key)),
				slog.String("error", err.Error()))
		}
		return nil, false
	}
	n.noteSuccess(owner)
	n.forwards.Add(1)
	resp.Peer = owner
	if cacheable {
		// Retain a copy normalized to what a cache-served answer looks
		// like: content addresses are immutable, so the copy never goes
		// stale, and the flags must not claim a fresh planning run.
		fill := *resp
		fill.Cached = true
		fill.Coalesced = false
		fill.Variants = nil
		fill.Trace = nil
		n.remoteMu.Lock()
		n.remote.Put(key, &fill)
		n.remoteMu.Unlock()
	}
	return resp, true
}

// exchange performs one HTTP exchange with a peer under timeout and
// returns the response body. A non-nil body is sent as JSON; header is
// alternating names and values. Anything but a 200 is an error.
func (n *Node) exchange(ctx context.Context, timeout time.Duration, method, url string, body []byte, header ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer answered %d", resp.StatusCode)
	}
	return data, nil
}

// forwardOnce performs one forwarded /v1/plan exchange with peer, under
// the forwarder's request ID so the request can be followed from edge to
// owner. A non-200 from the owner (replication lag on a platform name,
// admission shedding, an owner-side bug) is an error like any other: the
// caller falls back to a local run, which produces the authoritative
// local answer or error.
func (n *Node) forwardOnce(ctx context.Context, peer string, pr *service.PlanRequest) (*service.PlanResponse, error) {
	body, err := json.Marshal(pr)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	data, err := n.exchange(ctx, n.cfg.ForwardTimeout, http.MethodPost, peer+"/v1/plan", body,
		service.ForwardedHeader, n.cfg.Self,
		"X-Request-ID", obs.RequestIDFrom(ctx))
	if err != nil {
		return nil, err
	}
	var resp service.PlanResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &resp, nil
}

// retained answers key from the retained forwarded responses, returning
// a private shallow copy so the caller can stamp per-request fields (Peer
// is already set).
func (n *Node) retained(key service.CacheKey) (*service.PlanResponse, bool) {
	n.remoteMu.Lock()
	defer n.remoteMu.Unlock()
	kept, ok := n.remote.Get(key)
	if !ok {
		return nil, false
	}
	resp := *kept
	return &resp, true
}
