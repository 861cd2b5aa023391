package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/service"
)

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func testPlatform(n int) *platform.Platform {
	p, err := scenario.Spec{Family: scenario.Clustered, Name: "cluster-test", N: n, MinPower: 100, MaxPower: 800, Seed: 42}.Generate()
	if err != nil {
		panic(err)
	}
	return p
}

// testPeer is one in-process cluster member: a real service.Server behind
// a real listener, with its Node wired in.
type testPeer struct {
	srv  *service.Server
	node *Node
	ts   *httptest.Server
}

// newTestCluster boots size daemons on loopback listeners and joins them
// into one ring. Listeners come up first (their URLs are the membership
// list), then every node is built over the full list — the same two-step
// dance cmd/adeptd does with -peers.
func newTestCluster(t *testing.T, size int) []*testPeer {
	t.Helper()
	peers := make([]*testPeer, size)
	urls := make([]string, size)
	for i := range peers {
		srv, err := service.New(service.Config{CacheSize: 64, Workers: 2, QueueDepth: 16})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		peers[i] = &testPeer{srv: srv, ts: ts}
		urls[i] = ts.URL
	}
	for i, p := range peers {
		node, err := New(Config{
			Self:      urls[i],
			Peers:     urls,
			Secret:    "test-secret",
			Registry:  p.srv.Registry(),
			Cache:     p.srv.Cache(),
			RetryBase: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.srv.EnableCluster(node)
		p.node = node
		t.Cleanup(node.Close)
	}
	return peers
}

func postPlan(t *testing.T, url string, pr service.PlanRequest) (int, service.PlanResponse) {
	t.Helper()
	data, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.PlanResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestClusterForwarding proves the tentpole routing behaviour on real
// listeners: non-owners forward to the digest's ring owner, surface the
// owner's cache state, and stamp the answering peer; owners plan locally
// with no peer stamp; retained responses serve repeats without re-contacting
// the owner.
func TestClusterForwarding(t *testing.T) {
	peers := newTestCluster(t, 3)
	req := service.PlanRequest{Platform: testPlatform(12), DgemmN: 310}

	// Discover the owner via any node's ring (all rings are identical).
	_, first := postPlan(t, peers[0].ts.URL, req)
	ownerURL := peers[0].node.Ring().Owner(first.Key)
	var owner, nonOwnerA, nonOwnerB *testPeer
	for _, p := range peers {
		switch {
		case p.ts.URL == ownerURL:
			owner = p
		case nonOwnerA == nil:
			nonOwnerA = p
		default:
			nonOwnerB = p
		}
	}

	// The owner answers its own keys with no forwarding involved.
	code, resp := postPlan(t, owner.ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("owner plan: status %d", code)
	}
	if resp.Peer != "" {
		t.Errorf("owner response stamped with peer %q", resp.Peer)
	}
	if resp.Key != first.Key {
		t.Fatalf("key diverged: %s vs %s", resp.Key, first.Key)
	}

	// Both non-owners answer the warm key from the owner's cache.
	for _, p := range []*testPeer{nonOwnerA, nonOwnerB} {
		if p == nil {
			t.Fatal("owner not found in membership")
		}
		code, resp := postPlan(t, p.ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("non-owner plan via %s: status %d", p.ts.URL, code)
		}
		if resp.Peer != ownerURL {
			t.Errorf("non-owner response peer = %q, want %q", resp.Peer, ownerURL)
		}
		if !resp.Cached {
			t.Errorf("warm-key forward via %s not served from the owner's cache", p.ts.URL)
		}
	}

	var forwards uint64
	for _, p := range peers {
		forwards += p.node.Report().Forwards
	}
	if forwards < 2 {
		t.Errorf("summed forwards = %d, want >= 2", forwards)
	}

	// A repeat on a non-owner is served from its retained copy, without
	// another peer exchange.
	before := nonOwnerA.node.Report()
	code, resp = postPlan(t, nonOwnerA.ts.URL, req)
	after := nonOwnerA.node.Report()
	if code != http.StatusOK || !resp.Cached || resp.Peer != ownerURL {
		t.Fatalf("remote-fill repeat: code %d cached %v peer %q", code, resp.Cached, resp.Peer)
	}
	if after.RemoteCacheHits != before.RemoteCacheHits+1 {
		t.Errorf("remote cache hits %d -> %d, want +1", before.RemoteCacheHits, after.RemoteCacheHits)
	}
	if after.Forwards != before.Forwards {
		t.Errorf("repeat re-forwarded (forwards %d -> %d)", before.Forwards, after.Forwards)
	}
}

// TestForwardLoopPrevention proves a request already forwarded once is
// planned where it lands, whatever the ring says — single-hop routing by
// construction.
func TestForwardLoopPrevention(t *testing.T) {
	peers := newTestCluster(t, 3)
	data, err := json.Marshal(service.PlanRequest{Platform: testPlatform(9), DgemmN: 310})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, peers[0].ts.URL+"/v1/plan", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.ForwardedHeader, "http://some-peer")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Peer != "" {
		t.Errorf("forwarded request was re-forwarded to %q", out.Peer)
	}
	if got := peers[0].node.Report().Forwards; got != 0 {
		t.Errorf("forwards = %d, want 0 (marked request must plan locally)", got)
	}
}

// TestForwardCarriesRequestID proves a forwarded plan can be followed from
// edge to owner: the owner-side request arrives under the ID the edge
// answered its client with, and the owner's trace, relayed in the response,
// reports that same ID.
func TestForwardCarriesRequestID(t *testing.T) {
	const edgeURL, ownerURL = "http://edge.local", "http://owner.local"
	newServer := func() *service.Server {
		srv, err := service.New(service.Config{CacheSize: 8, Workers: 1, QueueDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	edge, owner := newServer(), newServer()
	tap := &fakeTransport{handler: owner.Handler()}
	node, err := New(Config{
		Self:     edgeURL,
		Peers:    []string{edgeURL, ownerURL},
		Registry: edge.Registry(),
		Cache:    edge.Cache(),
		Client:   &http.Client{Transport: tap},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	edge.EnableCluster(node)

	// Vary the request until its content address lands on the other peer.
	for dgemm := 100; dgemm < 200; dgemm++ {
		data, err := json.Marshal(service.PlanRequest{Platform: testPlatform(9), DgemmN: dgemm, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		edge.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(data)))
		if rec.Code != http.StatusOK {
			t.Fatalf("dgemm %d: status %d: %s", dgemm, rec.Code, rec.Body)
		}
		var out service.PlanResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Peer != ownerURL {
			continue // the edge owns this key and planned it itself
		}
		id := rec.Header().Get("X-Request-ID")
		if id == "" {
			t.Fatal("edge answered without an X-Request-ID")
		}
		if len(tap.reqIDs) != 1 || tap.reqIDs[0] != id {
			t.Errorf("owner saw request IDs %q, want the edge's %q", tap.reqIDs, id)
		}
		if out.Trace == nil || out.Trace.RequestID != id {
			t.Errorf("forwarded trace = %+v, want request_id %q", out.Trace, id)
		}
		return
	}
	t.Fatal("no request in the sweep was owned by the other peer")
}

// TestClusterRegistryConvergence drives a registry write through one peer
// and watches the invalidation webhooks converge every member, then a
// delete tombstone un-converge them again.
func TestClusterRegistryConvergence(t *testing.T) {
	peers := newTestCluster(t, 3)
	platJSON, err := json.Marshal(testPlatform(6))
	if err != nil {
		t.Fatal(err)
	}

	put, err := http.NewRequest(http.MethodPut, peers[0].ts.URL+"/v1/platforms/shared", bytes.NewReader(platJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: status %d", resp.StatusCode)
	}

	waitFor(t, "registration to replicate", func() bool {
		for _, p := range peers {
			if _, ok := p.srv.Registry().Get("shared"); !ok {
				return false
			}
		}
		return true
	})

	// A name-referencing plan works on a peer the write never touched.
	code, _ := postPlan(t, peers[2].ts.URL, service.PlanRequest{PlatformName: "shared", DgemmN: 310})
	if code != http.StatusOK {
		t.Fatalf("plan by replicated name: status %d", code)
	}

	del, err := http.NewRequest(http.MethodDelete, peers[1].ts.URL+"/v1/platforms/shared", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	waitFor(t, "tombstone to replicate", func() bool {
		for _, p := range peers {
			if _, ok := p.srv.Registry().Get("shared"); ok {
				return false
			}
		}
		return true
	})

	var applied uint64
	for _, p := range peers {
		applied += p.node.Report().InvalidationsApplied
	}
	if applied < 4 { // 2 peers × (put + delete)
		t.Errorf("summed invalidations applied = %d, want >= 4", applied)
	}
}

// TestPeerFailureFallback kills the peer owning a key mid-run and proves
// the survivors degrade to local planning: every request still answers
// 200, the fallback counter moves, and no client ever sees a 5xx.
func TestPeerFailureFallback(t *testing.T) {
	peers := newTestCluster(t, 3)
	plat := testPlatform(8)

	// Find a request whose content address a *remote* peer owns, from
	// peers[0]'s point of view, by scanning service costs.
	var (
		victim *testPeer
		probe  service.PlanRequest
	)
	for w := 1.0; w <= 64; w++ {
		req := service.PlanRequest{Platform: plat, Wapp: w, Trace: true}
		code, resp := postPlan(t, peers[0].ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("probe plan: status %d", code)
		}
		if resp.Peer != "" {
			probe = req
			for _, p := range peers[1:] {
				if p.ts.URL == resp.Peer {
					victim = p
				}
			}
			break
		}
	}
	if victim == nil {
		t.Fatal("no probe key landed on a remote owner (ring distribution broken?)")
	}

	// Kill the owner. Its listener refuses connections from here on.
	victim.ts.Close()

	before := peers[0].node.Report()
	code, resp := postPlan(t, peers[0].ts.URL, probe)
	if code != http.StatusOK {
		t.Fatalf("plan after owner death: status %d, want 200", code)
	}
	if resp.Peer != "" {
		t.Errorf("dead owner still credited: peer = %q", resp.Peer)
	}
	after := peers[0].node.Report()
	if after.Fallbacks <= before.Fallbacks {
		t.Errorf("fallbacks %d -> %d, want an increase", before.Fallbacks, after.Fallbacks)
	}

	// A burst of fresh keys across the survivors: all 200, zero 5xx.
	survivors := []*testPeer{peers[0]}
	for _, p := range peers[1:] {
		if p != victim {
			survivors = append(survivors, p)
		}
	}
	for i := 0; i < 24; i++ {
		req := service.PlanRequest{Platform: plat, Wapp: 1000 + float64(i)}
		code, _ := postPlan(t, survivors[i%len(survivors)].ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("request %d after peer death: status %d, want 200", i, code)
		}
	}
}

// TestClusterStatusEndpoint exercises GET /v1/cluster end to end: ring
// membership, self marking, health probing of a dead peer, and ownership
// accounting.
func TestClusterStatusEndpoint(t *testing.T) {
	peers := newTestCluster(t, 3)
	// Warm a key so ownership counts have something to count. NoCache
	// sidesteps forwarding, so the entry lands in peers[0]'s own cache
	// whatever the ring says.
	postPlan(t, peers[0].ts.URL, service.PlanRequest{Platform: testPlatform(5), DgemmN: 310, NoCache: true})
	peers[2].ts.Close()

	resp, err := http.Get(peers[0].ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Self != peers[0].ts.URL {
		t.Errorf("self = %q, want %q", st.Self, peers[0].ts.URL)
	}
	if len(st.Peers) != 3 {
		t.Fatalf("peer rows = %d, want 3", len(st.Peers))
	}
	var owned int
	for _, row := range st.Peers {
		owned += row.OwnedCachedKeys
		switch row.URL {
		case peers[0].ts.URL:
			if !row.Self || !row.Healthy {
				t.Errorf("self row = %+v, want self and healthy", row)
			}
		case peers[2].ts.URL:
			if row.Healthy {
				t.Errorf("dead peer %s reported healthy", row.URL)
			}
		}
		if row.RingShare <= 0 || row.RingShare >= 1 {
			t.Errorf("peer %s ring share = %v, want in (0,1)", row.URL, row.RingShare)
		}
	}
	if owned != st.CachedKeys {
		t.Errorf("ownership rows sum to %d, cache holds %d", owned, st.CachedKeys)
	}
	if st.CachedKeys < 1 {
		t.Error("no cached keys reported after a warm plan")
	}
}

// fakeTransport scripts peer HTTP behaviour: the first failuresLeft
// exchanges fail at the transport, later ones are served in-process by
// handler. It keeps the signature and request ID of every attempt.
type fakeTransport struct {
	mu           sync.Mutex
	failuresLeft int
	attempts     int
	sigs         []string
	reqIDs       []string
	handler      http.Handler
}

func (f *fakeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts++
	f.sigs = append(f.sigs, req.Header.Get(SignatureHeader))
	f.reqIDs = append(f.reqIDs, req.Header.Get("X-Request-ID"))
	if f.failuresLeft > 0 {
		f.failuresLeft--
		return nil, fmt.Errorf("synthetic connection failure")
	}
	rec := httptest.NewRecorder()
	f.handler.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newUnitNode builds a Node with injected stores, transport, and sleep —
// no listeners involved.
func newUnitNode(t *testing.T, self string, peers []string, secret string, rt http.RoundTripper, sleeps *[]time.Duration) *Node {
	t.Helper()
	cache, err := service.NewPlanCache(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Self:      self,
		Peers:     peers,
		Secret:    secret,
		Registry:  service.NewRegistry(),
		Cache:     cache,
		RetryBase: 10 * time.Millisecond,
		Client:    &http.Client{Transport: rt},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if sleeps != nil {
		var mu sync.Mutex
		n.sleep = func(_ context.Context, d time.Duration) bool {
			mu.Lock()
			defer mu.Unlock()
			*sleeps = append(*sleeps, d)
			return true
		}
	}
	return n
}

// TestWebhookRetryBackoff drops the first two deliveries on the floor and
// proves the sender retries with exponential backoff, signs every
// attempt, and converges the receiver exactly once.
func TestWebhookRetryBackoff(t *testing.T) {
	const secret = "shared-hmac-key"
	peerA, peerB := "http://a.local", "http://b.local"

	receiver := newUnitNode(t, peerB, []string{peerA, peerB}, secret, nil, nil)
	var sleeps []time.Duration
	ft := &fakeTransport{failuresLeft: 2, handler: receiver.InvalidateHandler()}
	sender := newUnitNode(t, peerA, []string{peerA, peerB}, secret, ft, &sleeps)

	sender.Broadcast(service.RegistryUpdate{Name: "p", Version: 7, Platform: testPlatform(4)})
	sender.wg.Wait()

	ft.mu.Lock()
	attempts, sigs := ft.attempts, append([]string(nil), ft.sigs...)
	ft.mu.Unlock()
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two failures + success)", attempts)
	}
	for i, sig := range sigs {
		if sig == "" {
			t.Errorf("attempt %d was unsigned", i+1)
		}
	}
	if len(sleeps) != 2 || sleeps[0] != 10*time.Millisecond || sleeps[1] != 20*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want [10ms 20ms]", sleeps)
	}

	rep := sender.Report()
	if rep.InvalidationsSent != 1 || rep.PeerErrors != 2 {
		t.Errorf("sender report = %+v, want 1 sent / 2 peer errors", rep)
	}
	if _, v, ok := receiver.cfg.Registry.GetVersion("p"); !ok || v != 7 {
		t.Errorf("receiver state = version %d (ok=%v), want 7", v, ok)
	}
	if got := receiver.Report().InvalidationsApplied; got != 1 {
		t.Errorf("receiver applied = %d, want 1", got)
	}
}

// TestInvalidateHandlerAuth pins the webhook receiver's trust boundary:
// unsigned and mis-signed payloads are rejected, own-origin echoes and
// stale versions are acknowledged but not applied.
func TestInvalidateHandlerAuth(t *testing.T) {
	const secret = "shared-hmac-key"
	peerA, peerB := "http://a.local", "http://b.local"
	node := newUnitNode(t, peerB, []string{peerA, peerB}, secret, nil, nil)
	h := node.InvalidateHandler()

	body, err := json.Marshal(service.RegistryUpdate{
		Name: "p", Version: 3, Platform: testPlatform(4), Origin: peerA,
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func(payload []byte, sig string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/invalidate", bytes.NewReader(payload))
		if sig != "" {
			req.Header.Set(SignatureHeader, sig)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := post(body, ""); rec.Code != http.StatusForbidden {
		t.Errorf("unsigned webhook: status %d, want 403", rec.Code)
	}
	if rec := post(body, sign("wrong-key", body)); rec.Code != http.StatusForbidden {
		t.Errorf("mis-signed webhook: status %d, want 403", rec.Code)
	}
	if _, ok := node.cfg.Registry.Get("p"); ok {
		t.Fatal("rejected webhook mutated the registry")
	}

	rec := post(body, sign(secret, body))
	if rec.Code != http.StatusOK {
		t.Fatalf("signed webhook: status %d: %s", rec.Code, rec.Body)
	}
	var res invalidateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || !res.Applied {
		t.Fatalf("signed webhook result = %+v (err %v), want applied", res, err)
	}

	// Redelivery (webhook retry after a lost ACK) is acknowledged, not
	// re-applied.
	rec = post(body, sign(secret, body))
	if rec.Code != http.StatusOK {
		t.Fatalf("redelivery: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Applied {
		t.Fatalf("redelivery result = %+v (err %v), want not applied", res, err)
	}

	// An echo of this node's own write is dropped even when newer.
	echo, err := json.Marshal(service.RegistryUpdate{
		Name: "p", Version: 9, Platform: testPlatform(4), Origin: peerB,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = post(echo, sign(secret, echo))
	if rec.Code != http.StatusOK {
		t.Fatalf("echo: status %d", rec.Code)
	}
	if _, v, _ := node.cfg.Registry.GetVersion("p"); v != 3 {
		t.Errorf("own-origin echo applied (version %d, want 3)", v)
	}
}

// TestRetainedResponsesLRU pins the forwarder's retained-response store on
// its own (the three-peer tests only ever retain a handful): at capacity
// it evicts the least recently used response, a hit refreshes recency, and
// every hit hands out a private copy.
func TestRetainedResponsesLRU(t *testing.T) {
	self := "http://a.local"
	n := newUnitNode(t, self, []string{self}, "", nil, nil)
	key := func(i int) service.CacheKey { return service.CacheKey(fmt.Sprintf("key-%03d", i)) }
	retain := func(i int) {
		n.remoteMu.Lock()
		n.remote.Put(key(i), &service.PlanResponse{Key: string(key(i)), Peer: "http://owner.local", Cached: true})
		n.remoteMu.Unlock()
	}
	for i := 0; i < remoteFillCapacity; i++ {
		retain(i)
	}

	first, ok := n.retained(key(0)) // refreshes key 0: key 1 is now the oldest
	if !ok || first.Key != string(key(0)) {
		t.Fatalf("retained(key 0) = %+v, %v", first, ok)
	}
	first.Peer = "scribbled"
	if again, _ := n.retained(key(0)); again == first || again.Peer != "http://owner.local" {
		t.Errorf("retained handed out the stored response, not a private copy: %+v", again)
	}

	retain(remoteFillCapacity) // one past capacity
	if _, ok := n.retained(key(1)); ok {
		t.Error("least recently used response survived at capacity")
	}
	for _, i := range []int{0, 2, remoteFillCapacity} {
		if _, ok := n.retained(key(i)); !ok {
			t.Errorf("key %d evicted, want retained", i)
		}
	}
	if got := n.remote.Len(); got != remoteFillCapacity {
		t.Errorf("retained %d responses, want the capacity %d", got, remoteFillCapacity)
	}
}

// TestOversizedBodyIs413 sends one byte more than the body limit to every
// endpoint that reads a platform-sized body. The limit used to truncate
// silently, so the client was told its JSON was malformed (or, on the
// webhook, that its signature was bad).
func TestOversizedBodyIs413(t *testing.T) {
	peer := newTestCluster(t, 1)[0]
	big := append([]byte(`{"platform_name":"`), bytes.Repeat([]byte("a"), maxWebhookBody)...)
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/v1/plan"},
		{http.MethodPost, "/v1/plan/batch"},
		{http.MethodPut, "/v1/platforms/big"},
		{http.MethodPost, "/v1/cluster/invalidate"},
	} {
		rec := httptest.NewRecorder()
		peer.srv.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, bytes.NewReader(big)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with a %d-byte body: status %d, want 413: %.200s",
				tc.method, tc.path, len(big), rec.Code, rec.Body)
		}
	}
	// A body exactly at the limit is still read in full and judged on its
	// content.
	rec := httptest.NewRecorder()
	peer.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(big[:maxWebhookBody])))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("body at the limit: status %d, want 400 (malformed JSON)", rec.Code)
	}
}
