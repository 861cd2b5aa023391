// Clustered-adeptd walkthrough: boot three daemons in-process, join them
// into one consistent-hash ring, and drive every clustering behaviour a
// real fleet exhibits — a registration on one peer replicating to all,
// a plan request routed to its content address's ring owner, warm-key
// requests on non-owners answered from the owner's cache, conditional
// writes rejecting a stale ETag with 412, the cluster status report, and
// a peer death degrading to local planning with zero failed requests.
//
// Run with: go run ./examples/cluster
//
// The same topology over real processes:
//
//	go run ./cmd/adeptd -addr :8080 -peer-self http://localhost:8080 \
//	    -peers http://localhost:8080,http://localhost:8081,http://localhost:8082 &
//	go run ./cmd/adeptd -addr :8081 -peer-self http://localhost:8081 \
//	    -peers http://localhost:8080,http://localhost:8081,http://localhost:8082 &
//	go run ./cmd/adeptd -addr :8082 -peer-self http://localhost:8082 \
//	    -peers http://localhost:8080,http://localhost:8081,http://localhost:8082 &
//	go run ./cmd/adeptload -url http://localhost:8080,http://localhost:8081,http://localhost:8082
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"adept/internal/cluster"
	"adept/internal/scenario"
	"adept/internal/service"
)

// peer bundles one in-process cluster member.
type peer struct {
	srv  *service.Server
	node *cluster.Node
	ts   *httptest.Server
}

func main() {
	// Listeners first: their URLs are the membership list every node is
	// configured with. This mirrors cmd/adeptd, where -peers is known
	// before the ring is built.
	const size = 3
	peers := make([]*peer, size)
	urls := make([]string, size)
	for i := range peers {
		srv, err := service.New(service.Config{CacheSize: 64, Workers: 2})
		if err != nil {
			log.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		peers[i] = &peer{srv: srv, ts: ts}
		urls[i] = ts.URL
	}
	for i, p := range peers {
		node, err := cluster.New(cluster.Config{
			Self:     urls[i],
			Peers:    urls,
			Secret:   "walkthrough-secret",
			Registry: p.srv.Registry(),
			Cache:    p.srv.Cache(),
		})
		if err != nil {
			log.Fatal(err)
		}
		p.srv.EnableCluster(node)
		p.node = node
		defer node.Close()
		defer p.ts.Close()
		defer p.srv.Close()
	}
	fmt.Println("three-peer cluster up:")
	for i, u := range urls {
		fmt.Printf("  peer %d: %s\n", i, u)
	}

	// 1. Register a platform on peer 0; the versioned write fans out to
	// the other peers as HMAC-signed invalidation webhooks.
	plat, err := scenario.Spec{
		Family: scenario.Clustered, Name: "shared", N: 24, MinPower: 100, MaxPower: 800, Seed: 7,
	}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	platJSON, err := plat.MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	etag := putPlatform(urls[0], "shared", platJSON, "")
	fmt.Printf("\nregistered %q on peer 0 (ETag %s); waiting for replication...\n", "shared", etag)
	for _, u := range urls {
		waitETag(u, "shared", etag)
	}
	fmt.Println("all three registries resolve the name")

	// 2. Conditional writes: a stale If-Match is rejected with 412 — the
	// lost-update fix, visible over plain HTTP. The first ETag is stale on
	// peer 2 only once peer 1's write has replicated there, so wait for it.
	etag2 := putPlatform(urls[1], "shared", platJSON, etag)
	waitETag(urls[2], "shared", etag2)
	if code := tryPut(urls[2], "shared", platJSON, etag); code != http.StatusPreconditionFailed {
		log.Fatalf("stale conditional PUT: status %d, want 412", code)
	}
	fmt.Printf("conditional PUT: current ETag accepted, stale ETag answered 412\n")

	// 3. Plan by name through each peer. The content address's ring owner
	// answers; non-owners forward one hop and surface the owner's cache.
	var key string
	for i, u := range urls {
		resp := postPlan(u, `{"platform_name":"shared","dgemm_n":310}`)
		key = resp.Key
		where := "planned locally (ring owner)"
		if resp.Peer != "" {
			where = fmt.Sprintf("answered by owner %s (cached=%v)", resp.Peer, resp.Cached)
		}
		fmt.Printf("peer %d: rho=%.3f nodes=%d  %s\n", i, resp.Rho, resp.NodesUsed, where)
	}
	owner := peers[0].node.Ring().Owner(key)
	fmt.Printf("content address %s... is owned by %s\n", key[:12], owner)

	// 4. The cluster status endpoint: membership, health, ownership.
	var status cluster.Status
	get(urls[0]+"/v1/cluster", &status)
	fmt.Printf("\ncluster status via peer 0: self=%s cached_keys=%d\n", status.Self, status.CachedKeys)
	for _, row := range status.Peers {
		fmt.Printf("  %-28s healthy=%-5v share=%.2f owned_keys=%d\n",
			row.URL, row.Healthy, row.RingShare, row.OwnedCachedKeys)
	}

	// 5. Kill the owner. Requests for its keys degrade to local planning
	// on the survivors — no client ever sees an error.
	var victim *peer
	for _, p := range peers {
		if p.ts.URL == owner {
			victim = p
		}
	}
	victim.ts.Close()
	fmt.Printf("\nkilled owner %s\n", owner)

	// The warm key still answers instantly on peers that retained the
	// owner's response (the fill-back copy is immune to the owner dying,
	// because content addresses never go stale)...
	for i, p := range peers {
		if p == victim {
			continue
		}
		resp := postPlan(p.ts.URL, `{"platform_name":"shared","dgemm_n":310}`)
		fmt.Printf("peer %d: warm key still 200 (cached=%v, served from retained copy of %s)\n",
			i, resp.Cached, resp.Peer)
	}

	// ...and fresh keys owned by the dead peer fall back to local
	// planning on whichever survivor receives them.
	var survivor *peer
	for _, p := range peers {
		if p != victim {
			survivor = p
		}
	}
	requests, before := 0, survivor.node.Report().Fallbacks
	for w := 1.0; survivor.node.Report().Fallbacks == before; w++ {
		postPlan(survivor.ts.URL, fmt.Sprintf(`{"platform_name":"shared","wapp":%g}`, w))
		requests++
	}
	fmt.Printf("\n%d fresh keys on a survivor: all 200, %d planned locally after the owner refused\n",
		requests, survivor.node.Report().Fallbacks-before)
	fmt.Println("peer failure degraded to local planning; zero failed requests")
}

// putPlatform PUTs body as name and returns the response ETag.
func putPlatform(base, name string, body []byte, ifMatch string) string {
	req, err := http.NewRequest(http.MethodPut, base+"/v1/platforms/"+name, bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("PUT %s: status %d: %s", name, resp.StatusCode, data)
	}
	return resp.Header.Get("ETag")
}

// waitETag polls base until it serves name at etag: replication is
// asynchronous, and convergence is every peer answering the same version.
func waitETag(base, name, etag string) {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(base + "/v1/platforms/" + name)
		if err != nil {
			log.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("ETag") == etag {
			return
		}
	}
	log.Fatalf("%s never served %q at ETag %s", base, name, etag)
}

// tryPut is putPlatform without the fatal-on-error: it returns the status
// code so callers can demonstrate 412s.
func tryPut(base, name string, body []byte, ifMatch string) int {
	req, err := http.NewRequest(http.MethodPut, base+"/v1/platforms/"+name, bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("If-Match", ifMatch)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// postPlan sends a plan request and decodes the response.
func postPlan(base, body string) service.PlanResponse {
	resp, err := http.Post(base+"/v1/plan", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST /v1/plan: status %d: %s", resp.StatusCode, data)
	}
	var out service.PlanResponse
	if err := json.Unmarshal(data, &out); err != nil {
		log.Fatal(err)
	}
	return out
}

// get fetches a JSON document into out.
func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
