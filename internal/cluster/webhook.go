package cluster

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"

	"adept/internal/service"
)

// SignatureHeader carries the hex HMAC-SHA256 of the webhook body, keyed
// by the cluster's shared secret.
const SignatureHeader = "X-Adept-Signature"

// maxWebhookBody bounds an invalidation payload: one platform document
// plus envelope. 16 MiB is far above any legitimate platform; a larger
// body is answered 413.
const maxWebhookBody = 16 << 20

// sign computes the hex HMAC-SHA256 of body under secret.
func sign(secret string, body []byte) string {
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(body)
	return hex.EncodeToString(mac.Sum(nil))
}

// verify reports whether sig is body's valid signature under secret,
// comparing in constant time.
func verify(secret string, body []byte, sig string) bool {
	want, err := hex.DecodeString(sign(secret, body))
	if err != nil {
		return false
	}
	got, err := hex.DecodeString(sig)
	if err != nil {
		return false
	}
	return hmac.Equal(want, got)
}

// Broadcast fans the registry update out to every other peer, each on
// its own delivery goroutine so a slow peer never blocks the writer or
// the other peers. Deliveries retry with exponential backoff; a peer
// that stays down simply misses the update until its next restart
// re-reads the journal or a newer version reaches it (version-checked
// application makes both redelivery and loss safe).
func (n *Node) Broadcast(u service.RegistryUpdate) {
	u.Origin = n.cfg.Self
	body, err := json.Marshal(u)
	if err != nil {
		// A platform that round-tripped through the registry always
		// marshals; this guards future payload changes.
		n.logger.LogAttrs(n.ctx, slog.LevelError, "encode registry update",
			slog.String("name", u.Name), slog.String("error", err.Error()))
		return
	}
	for _, peer := range n.ring.Peers() {
		if peer == n.cfg.Self {
			continue
		}
		n.wg.Add(1)
		go func(peer string) {
			defer n.wg.Done()
			n.deliver(peer, u.Name, u.Version, body)
		}(peer)
	}
}

// deliver pushes one signed invalidation to peer, trying
// deliveryAttempts times with exponential backoff (RetryBase, 2×, 4×,
// ...). Every failed attempt counts one peer error; only a delivered
// webhook counts as sent.
func (n *Node) deliver(peer, name string, version uint64, body []byte) {
	for attempt := 0; attempt < deliveryAttempts; attempt++ {
		if attempt > 0 {
			if !n.sleep(n.ctx, n.cfg.RetryBase<<(attempt-1)) {
				return // node closing
			}
		}
		err := n.postInvalidate(peer, body)
		if err == nil {
			n.invSent.Add(1)
			n.noteSuccess(peer)
			return
		}
		n.peerErrors.Add(1)
		n.noteFailure(peer)
		if n.logger.Enabled(n.ctx, slog.LevelWarn) {
			n.logger.LogAttrs(n.ctx, slog.LevelWarn, "invalidation delivery failed",
				slog.String("peer", peer),
				slog.String("name", name),
				slog.Uint64("version", version),
				slog.Int("attempt", attempt+1),
				slog.Int("attempts", deliveryAttempts),
				slog.String("error", err.Error()))
		}
	}
}

// postInvalidate performs one signed POST of body to peer's webhook
// receiver.
func (n *Node) postInvalidate(peer string, body []byte) error {
	var header []string
	if n.cfg.Secret != "" {
		header = []string{SignatureHeader, sign(n.cfg.Secret, body)}
	}
	_, err := n.exchange(n.ctx, n.cfg.ForwardTimeout, http.MethodPost, peer+"/v1/cluster/invalidate", body, header...)
	return err
}

// invalidateResult is the webhook receiver's JSON answer.
type invalidateResult struct {
	// Applied reports that the update was newer than local state and
	// changed it; false means it was stale, an echo of this node's own
	// write, or a no-op.
	Applied bool   `json:"applied"`
	Name    string `json:"name"`
	Version uint64 `json:"version"`
}

// InvalidateHandler serves POST /v1/cluster/invalidate: verify the HMAC
// signature, decode the update, drop own-origin echoes, and fold the
// rest into the registry iff strictly newer than local state.
func (n *Node) InvalidateHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWebhookBody))
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, `{"error":"read body"}`, status)
			return
		}
		if n.cfg.Secret != "" && !verify(n.cfg.Secret, body, r.Header.Get(SignatureHeader)) {
			http.Error(w, `{"error":"bad signature"}`, http.StatusForbidden)
			return
		}
		var u service.RegistryUpdate
		if err := json.Unmarshal(body, &u); err != nil {
			http.Error(w, `{"error":"bad update payload"}`, http.StatusBadRequest)
			return
		}
		res := invalidateResult{Name: u.Name, Version: u.Version}
		if u.Origin != n.cfg.Self {
			applied, err := n.cfg.Registry.ApplyRemote(u)
			if err != nil {
				http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
				return
			}
			if applied {
				n.invApplied.Add(1)
			}
			res.Applied = applied
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(res)
	})
}

// PeerStatus is one ring member's row in the cluster status report.
type PeerStatus struct {
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	// Healthy reflects a live /healthz probe for remote peers (and is
	// always true for self).
	Healthy bool `json:"healthy"`
	// ConsecutiveFailures is the passive circuit-breaker state: failed
	// exchanges since the last success (0 = breaker closed).
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// OwnedCachedKeys counts this node's locally cached content
	// addresses that the ring assigns to this peer.
	OwnedCachedKeys int `json:"owned_cached_keys"`
	// RingShare is the fraction of the hash space the peer owns.
	RingShare float64 `json:"ring_share"`
}

// Status is the JSON body of GET /v1/cluster.
type Status struct {
	Self       string             `json:"self"`
	Replicas   int                `json:"replicas"`
	CachedKeys int                `json:"cached_keys"`
	Counters   service.PeerReport `json:"counters"`
	Peers      []PeerStatus       `json:"peers"`
}

// StatusHandler serves GET /v1/cluster: ring membership with per-peer
// live health probes, circuit-breaker state, ring shares, and how many
// locally cached keys each peer owns.
func (n *Node) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peers := n.ring.Peers()
		owned := make(map[string]int, len(peers))
		keys := n.cfg.Cache.Keys()
		for _, k := range keys {
			owned[n.ring.Owner(string(k))]++
		}
		st := Status{
			Self:       n.cfg.Self,
			Replicas:   n.ring.Replicas(),
			CachedKeys: len(keys),
			Counters:   n.Report(),
			Peers:      make([]PeerStatus, len(peers)),
		}
		var wg sync.WaitGroup
		for i, peer := range peers {
			st.Peers[i] = PeerStatus{
				URL:                 peer,
				Self:                peer == n.cfg.Self,
				ConsecutiveFailures: n.peerFailures(peer),
				OwnedCachedKeys:     owned[peer],
				RingShare:           n.ring.Share(peer),
			}
			if peer == n.cfg.Self {
				st.Peers[i].Healthy = true
				continue
			}
			wg.Add(1)
			go func(i int, peer string) {
				defer wg.Done()
				st.Peers[i].Healthy = n.probe(r.Context(), peer)
			}(i, peer)
		}
		wg.Wait()
		sort.Slice(st.Peers, func(a, b int) bool { return st.Peers[a].URL < st.Peers[b].URL })
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
}

// probe issues one GET /healthz against peer.
func (n *Node) probe(ctx context.Context, peer string) bool {
	_, err := n.exchange(ctx, probeTimeout, http.MethodGet, peer+"/healthz", nil)
	return err == nil
}
