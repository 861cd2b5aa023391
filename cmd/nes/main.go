// Command nes launches a planned deployment on the concurrent middleware
// runtime (the GoDIET role) and drives closed-loop client load against it,
// reporting measured throughput — the live counterpart of the simulator.
//
// Usage:
//
//	nes -xml deployment.xml -clients 10 -duration 5s [-transport tcp]
//	    [-dgemm 100] [-scale 0.01] [-real-dgemm]
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"

	"adept/internal/deploy"
	"adept/internal/model"
	"adept/internal/runtime"
	"adept/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nes:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		xmlPath   = flag.String("xml", "", "deployment XML produced by adept (required)")
		transport = flag.String("transport", "chan", "transport: chan or tcp")
		clients   = flag.Int("clients", 4, "number of closed-loop clients")
		duration  = flag.Duration("duration", 5*time.Second, "measurement duration")
		dgemmN    = flag.Int("dgemm", 100, "DGEMM dimension defining the service cost")
		scale     = flag.Float64("scale", 0.01, "time scale: real seconds per virtual second")
		realWork  = flag.Bool("real-dgemm", false, "execute a real DGEMM per service request instead of the calibrated sleep")
		bandwidth = flag.Float64("bw", 100, "virtual link bandwidth (Mb/s)")
		metered   = flag.Bool("metered", false, "print per-message traffic statistics")
	)
	flag.Parse()
	if *xmlPath == "" {
		flag.Usage()
		return fmt.Errorf("missing -xml")
	}

	opts := runtime.Options{
		Costs:     model.DIETDefaults(),
		Bandwidth: *bandwidth,
		Wapp:      workload.DGEMM{N: *dgemmN}.MFlop(),
		TimeScale: *scale,
	}
	if *realWork {
		opts.DgemmN = *dgemmN
		opts.TimeScale = 0
	}

	cfg := deploy.Config{
		Transport: deploy.TransportKind(*transport),
		Metered:   *metered,
		Options:   opts,
	}
	dep, err := deploy.LaunchXMLFile(*xmlPath, cfg)
	if err != nil {
		return err
	}
	defer dep.Stop()

	stats := dep.Hierarchy.ComputeStats()
	fmt.Printf("deployed %q: %d agents, %d servers, depth %d, transport=%s\n",
		dep.Hierarchy.Name, stats.Agents, stats.Servers, stats.Depth, *transport)
	fmt.Printf("driving %d clients for %s...\n", *clients, *duration)

	load, err := dep.System.RunClients(context.Background(), *clients, *duration)
	if err != nil {
		return err
	}
	fmt.Printf("completed:  %d requests (%d failed, %d timeouts)\n", load.Completed, load.Failed, load.Timeouts)
	fmt.Printf("throughput: %.2f req/s", load.Throughput)
	if opts.TimeScale > 0 {
		fmt.Printf(" (virtual; time scale %.3g)", opts.TimeScale)
	}
	fmt.Println()

	served := dep.System.ServedCounts()
	for _, name := range slices.Sorted(maps.Keys(served)) {
		if count := served[name]; count > 0 {
			fmt.Printf("  %-24s %6d served\n", name, count)
		}
	}
	if dep.Meter != nil {
		fmt.Println("traffic:")
		traffic := dep.Meter.Stats()
		for _, typ := range slices.Sorted(maps.Keys(traffic)) {
			st := traffic[typ]
			fmt.Printf("  %-28s %8d msgs %10d bytes (%.1f B/msg)\n",
				typ, st.Count, st.Bytes, float64(st.Bytes)/float64(st.Count))
		}
	}
	if errs := dep.System.Errors(); len(errs) > 0 {
		fmt.Printf("protocol anomalies: %d (first: %v)\n", len(errs), errs[0])
	}
	return nil
}
