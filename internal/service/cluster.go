package service

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"adept/internal/platform"
)

// ForwardedHeader marks a /v1/plan request as already forwarded once by a
// peer (its value is the forwarding peer's advertised URL). A request
// carrying it is always planned where it lands — consistent-hash routing
// is single-hop by construction, so divergent ring views between peers
// can never bounce a request around the cluster.
const ForwardedHeader = "X-Adept-Forwarded"

// RegistryUpdate is one versioned registry mutation, as fanned out to
// peers by push-invalidation webhooks and folded in by
// Registry.ApplyRemote. Version orders updates for a name across the
// whole cluster; Deleted marks a tombstone (Platform nil); Origin is the
// advertised URL of the peer the write landed on, so receivers can drop
// their own echoes.
type RegistryUpdate struct {
	Name     string             `json:"name"`
	Version  uint64             `json:"version"`
	Deleted  bool               `json:"deleted,omitempty"`
	Platform *platform.Platform `json:"platform,omitempty"`
	Origin   string             `json:"origin,omitempty"`
}

// ApplyRemote folds a replication update from a peer into the store. It
// applies iff u.Version is strictly newer than the highest version seen
// locally for u.Name — duplicate deliveries, replays after webhook
// retries, and out-of-order arrivals are all no-ops, so convergence needs
// no coordination beyond the version itself. Local writes through
// Put/Delete keep their own monotonic counters above anything applied
// here, because both paths share the versions map.
func (r *Registry) ApplyRemote(u RegistryUpdate) (bool, error) {
	if err := validName(u.Name); err != nil {
		return false, err
	}
	if u.Version == 0 {
		return false, fmt.Errorf("service: remote update for %q carries no version", u.Name)
	}
	var entry *regEntry
	if !u.Deleted {
		if u.Platform == nil {
			return false, fmt.Errorf("service: remote update for %q carries no platform", u.Name)
		}
		var err error
		if entry, err = newRegEntry(u.Platform, u.Version); err != nil {
			return false, err
		}
	}
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	r.mu.Lock()
	if u.Version <= r.versions[u.Name] {
		r.mu.Unlock()
		return false, nil
	}
	r.versions[u.Name] = u.Version
	if u.Deleted {
		delete(r.platforms, u.Name)
	} else {
		r.platforms[u.Name] = entry
	}
	r.mu.Unlock()
	if r.persistDir != "" {
		if u.Deleted {
			_ = os.Remove(filepath.Join(r.persistDir, u.Name+".json"))
		} else if err := persistPlatform(r.persistDir, u.Name, u.Platform); err != nil {
			return true, err
		}
	}
	r.persistVersionsLocked()
	return true, nil
}

// PeerReport is the cluster-layer counter block surfaced in both metrics
// endpoints (adeptd_peer_* families on GET /metrics, the "peer" object on
// GET /v1/metrics).
type PeerReport struct {
	// Peers is the ring membership size, this node included.
	Peers int `json:"peers"`
	// Forwards counts plan requests answered by forwarding to the key's
	// owning peer.
	Forwards uint64 `json:"forwards"`
	// Fallbacks counts plan requests that should have been forwarded but
	// were planned locally because the owner was unreachable, unhealthy,
	// or answered with an error.
	Fallbacks uint64 `json:"fallbacks"`
	// RemoteCacheHits counts plan requests answered from the local copy of
	// a previously forwarded response (content addresses are immutable, so
	// the copy can never go stale).
	RemoteCacheHits uint64 `json:"remote_cache_hits"`
	// InvalidationsSent counts registry update webhooks successfully
	// delivered to peers; InvalidationsApplied counts received webhooks
	// that were newer than local state and changed it.
	InvalidationsSent    uint64 `json:"invalidations_sent"`
	InvalidationsApplied uint64 `json:"invalidations_applied"`
	// PeerErrors counts failed peer HTTP exchanges (forwards and webhook
	// deliveries, retries included).
	PeerErrors uint64 `json:"peer_errors"`
}

// Cluster is the seam between the single-process daemon and the peer
// layer (internal/cluster implements it). The Server calls it only when
// one was attached via EnableCluster; a nil cluster is single-node mode,
// with zero network traffic and byte-identical behaviour to the
// pre-cluster daemon.
type Cluster interface {
	// ForwardPlan tries to answer the request on the peer owning key's
	// slice of the consistent-hash ring. ok=false means the caller should
	// plan locally: the key is self-owned, or the owner could not answer
	// (peer failure degrades to local planning, never to a client-visible
	// error).
	ForwardPlan(ctx context.Context, key CacheKey, pr *PlanRequest) (resp *PlanResponse, ok bool)
	// Broadcast fans a local registry mutation out to every peer
	// asynchronously (delivery retries with backoff; stale versions are
	// discarded by the receiver, so redelivery is harmless).
	Broadcast(u RegistryUpdate)
	// Report snapshots the peer counters for the metrics endpoints.
	Report() PeerReport
	// StatusHandler serves GET /v1/cluster: ring membership, per-peer
	// health, and key ownership counts.
	StatusHandler() http.Handler
	// InvalidateHandler serves POST /v1/cluster/invalidate: the
	// HMAC-verified webhook receiver feeding ApplyRemote.
	InvalidateHandler() http.Handler
}

// EnableCluster attaches the peer layer: /v1/plan requests whose content
// address another peer owns are forwarded there, registry writes
// broadcast invalidations, the cluster endpoints are mounted (and
// instrumented like every other endpoint), and the adeptd_peer_* counter
// families join the Prometheus registry. Call before serving traffic.
func (s *Server) EnableCluster(c Cluster) {
	s.cluster = c
	s.mux.Handle("GET /v1/cluster", s.instrument("cluster_status", c.StatusHandler().ServeHTTP))
	s.mux.Handle("POST /v1/cluster/invalidate", s.instrument("cluster_invalidate", c.InvalidateHandler().ServeHTTP))
	prom := s.metrics.Prom()
	prom.GaugeFunc("adeptd_peers", "Peers in the cluster ring, this node included.", func() float64 {
		return float64(c.Report().Peers)
	})
	// peer adapts one PeerReport counter to a scrape-time callback.
	peer := func(field func(PeerReport) uint64) func() uint64 {
		return func() uint64 { return field(c.Report()) }
	}
	prom.CounterFunc("adeptd_peer_forwards_total", "Plan requests answered by the key's owning peer.",
		peer(func(r PeerReport) uint64 { return r.Forwards }))
	prom.CounterFunc("adeptd_peer_fallbacks_total", "Plan requests planned locally because the owning peer was unavailable.",
		peer(func(r PeerReport) uint64 { return r.Fallbacks }))
	prom.CounterFunc("adeptd_peer_remote_cache_hits_total", "Plan requests answered from locally retained forwarded responses.",
		peer(func(r PeerReport) uint64 { return r.RemoteCacheHits }))
	prom.CounterFunc("adeptd_peer_invalidations_sent_total", "Registry invalidation webhooks delivered to peers.",
		peer(func(r PeerReport) uint64 { return r.InvalidationsSent }))
	prom.CounterFunc("adeptd_peer_invalidations_applied_total", "Peer registry invalidations applied over local state.",
		peer(func(r PeerReport) uint64 { return r.InvalidationsApplied }))
	prom.CounterFunc("adeptd_peer_errors_total", "Failed peer HTTP exchanges (forwards and webhook deliveries).",
		peer(func(r PeerReport) uint64 { return r.PeerErrors }))
}

// broadcast fans a registry mutation out when a cluster is attached.
func (s *Server) broadcast(u RegistryUpdate) {
	if s.cluster != nil {
		s.cluster.Broadcast(u)
	}
}
