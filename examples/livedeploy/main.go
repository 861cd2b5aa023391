// Live deployment: plan a hierarchy, serialise it to the GoDIET-style XML,
// launch it on the concurrent goroutine middleware over loopback TCP, and
// measure real wall-clock throughput with closed-loop clients — the whole
// paper pipeline (plan → write_xml → deploy → load) end to end, with
// servers executing real DGEMM kernels.
//
// Run with: go run ./examples/livedeploy
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"adept/internal/core"
	"adept/internal/deploy"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/runtime"
	"adept/internal/workload"
)

func main() {
	ctx := context.Background()
	plat := platform.Homogeneous("live", 6, 400, 100)
	app := workload.DGEMM{N: 96}
	req := core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: app.MFlop()}

	plan, err := core.NewHeuristic().PlanContext(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan.Summary())

	// write_xml: the planner's artifact...
	xml, err := plan.XML()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeployment XML (%d bytes):\n%s\n", len(xml), xml)

	// ...consumed by the deployment tool, over real TCP sockets.
	dep, err := deploy.LaunchXML(strings.NewReader(xml), deploy.Config{
		Transport: deploy.TransportTCP,
		Metered:   true,
		Options: runtime.Options{
			Costs:     model.DIETDefaults(),
			Bandwidth: plat.Bandwidth,
			Wapp:      app.MFlop(),
			DgemmN:    app.N, // servers run a real 96x96 matrix multiply
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Stop()

	fmt.Println("launched on loopback TCP; driving 4 clients for 2s of real DGEMM work...")
	stats, err := dep.System.RunClients(ctx, 4, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d requests (%.1f req/s real), %d failed, %d timeouts\n",
		stats.Completed, float64(stats.Completed)/stats.Elapsed.Seconds(), stats.Failed, stats.Timeouts)

	fmt.Println("per-server completions:")
	for name, count := range dep.System.ServedCounts() {
		fmt.Printf("  %-12s %d\n", name, count)
	}
	fmt.Printf("wire traffic: %d messages, %d bytes\n",
		dep.Meter.TotalMessages(), dep.Meter.TotalBytes())
}
