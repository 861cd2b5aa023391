// Planning-as-a-service walkthrough: start the adeptd service in-process,
// register a platform, plan against it twice (observing the cache hit),
// send a thundering herd of identical requests (observing that they
// coalesce onto one planner run), fan a batch across every planner,
// launch a live deployment through the daemon, and read back the metrics
// — everything cmd/adeptd serves, driven through its HTTP API exactly as
// a remote client would.
//
// Run with: go run ./examples/service
//
// For load-testing a real daemon over the network — target request
// rates, hot/cold key mixes, latency histograms, and 429 backpressure —
// use the closed-loop generator instead:
//
//	go run ./cmd/adeptd -addr :8080 &
//	go run ./cmd/adeptload -url http://localhost:8080 -duration 10s -rps 200
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"

	"adept/internal/platform"
	"adept/internal/service"
)

func main() {
	srv, err := service.New(service.Config{CacheSize: 64, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("adeptd serving at %s\n\n", ts.URL)

	// 1. Register a 50-node heterogeneous platform under a name.
	plat, err := platform.Generate(platform.GenSpec{
		Name: "orsay", N: 50, Bandwidth: 100, MinPower: 100, MaxPower: 800, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	body, _ := plat.MarshalIndent()
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/platforms/orsay", bytes.NewReader(body))
	mustOK(http.DefaultClient.Do(req))
	fmt.Println("registered platform \"orsay\" (50 nodes)")

	// 2. Plan by name, twice: the second call is a cache hit.
	for i := 1; i <= 2; i++ {
		var pr service.PlanResponse
		postJSON(ts.URL+"/v1/plan", service.PlanRequest{
			PlatformName: "orsay",
			DgemmN:       310,
		}, &pr)
		fmt.Printf("plan %d: %s ρ=%.2f req/s bottleneck=%s nodes=%d cached=%v (%.2f ms)\n",
			i, pr.Planner, pr.Rho, pr.Bottleneck, pr.NodesUsed, pr.Cached, pr.ElapsedMS)
	}

	// 3. Thundering herd: concurrent identical requests on a cold key
	// coalesce onto a single planning run — the joiners answer with
	// "coalesced": true and the daemon burns one pool worker, not eight.
	herd, err := platform.Generate(platform.GenSpec{
		Name: "herd", N: 300, Bandwidth: 100, MinPower: 100, MaxPower: 800, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	const herdSize = 8
	herdResults := make([]service.PlanResponse, herdSize)
	var wg sync.WaitGroup
	for i := 0; i < herdSize; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(ts.URL+"/v1/plan", service.PlanRequest{Platform: herd, DgemmN: 310}, &herdResults[i])
		}(i)
	}
	wg.Wait()
	coalesced, cached := 0, 0
	for _, pr := range herdResults {
		if pr.Coalesced {
			coalesced++
		}
		if pr.Cached {
			cached++
		}
	}
	fmt.Printf("\nthundering herd: %d identical requests -> %d coalesced, %d cached, %d planner run(s)\n",
		herdSize, coalesced, cached, herdSize-coalesced-cached)

	// 4. Batch: the same platform across every planner in one call.
	var batch service.BatchResponse
	var reqs []service.PlanRequest
	planners := []string{"heuristic", "heuristic+swap", "star", "balanced", "dary"}
	for _, p := range planners {
		reqs = append(reqs, service.PlanRequest{PlatformName: "orsay", Planner: p, DgemmN: 310})
	}
	postJSON(ts.URL+"/v1/plan/batch", service.BatchRequest{Requests: reqs}, &batch)
	fmt.Println("\nbatch across planners:")
	for i, item := range batch.Items {
		if item.Error != "" {
			fmt.Printf("  %-15s error: %s\n", planners[i], item.Error)
			continue
		}
		fmt.Printf("  %-15s ρ=%8.2f req/s  nodes=%3d  depth=%d\n",
			item.Plan.Planner, item.Plan.Rho, item.Plan.NodesUsed, item.Plan.Depth)
	}

	// 5. Live deployment: the daemon launches the planned hierarchy on the
	// in-process middleware runtime and drives closed-loop clients.
	var dep service.DeployResponse
	postJSON(ts.URL+"/v1/deploy", service.DeployRequest{
		PlanRequest: service.PlanRequest{
			Platform: platform.Homogeneous("live", 6, 400, 100),
			Wapp:     5.0,
		},
		Clients:        4,
		DurationMillis: 400,
	}, &dep)
	fmt.Printf("\nlive deploy: %d requests completed (%.1f req/s real) on %d servers\n",
		dep.Completed, dep.Throughput, len(dep.ServedCounts))

	// 6. Metrics: counters, cache hit/miss, coalescing, latency percentiles.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		log.Fatal(err)
	}
	var rep service.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nmetrics: %d requests, cache %d hit / %d miss, %d coalesced, %d planner run(s), %d platform(s)\n",
		rep.Requests, rep.CacheHits, rep.CacheMisses, rep.Coalesced, rep.PlansExecuted, rep.Platforms)
	for ep, em := range rep.Endpoints {
		fmt.Printf("  %-16s %3d req  p50=%.2fms  p99=%.2fms\n", ep, em.Requests, em.P50Millis, em.P99Millis)
	}
}

func postJSON(url string, in, out any) {
	data, err := json.Marshal(in)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		log.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, buf.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func mustOK(resp *http.Response, err error) {
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		log.Fatalf("status %d: %s", resp.StatusCode, buf.String())
	}
}
