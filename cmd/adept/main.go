// Command adept plans a middleware deployment for a platform description:
// the Automatic Deployment Planning Tool the paper's future-work section
// names. It reads a platform JSON file, runs the chosen planner, prints the
// predicted throughput and bottleneck, and writes the GoDIET-style
// deployment XML.
//
// Usage:
//
//	adept -platform platform.json -dgemm 310 [-planner heuristic]
//	      [-demand 100] [-out deployment.xml] [-dot deployment.dot]
//
// Generate a synthetic platform to experiment with:
//
//	adept -gen 200 -gen-min 100 -gen-max 800 -platform out.json
//
// Or a heterogeneous-links multi-cluster grid (cluster 0 on the fast
// intra-cluster link, the rest behind the slow inter-cluster uplink):
//
//	adept -gen 15 -gen-clusters 3 -gen-intra 100 -gen-inter 2 -platform grid.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/platform"
	"adept/internal/service"
	"adept/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adept:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		platformPath = flag.String("platform", "", "platform description JSON file (required)")
		plannerName  = flag.String("planner", "heuristic", "planner: heuristic, heuristic+swap, star, balanced, dary, exhaustive, portfolio")
		dgemmN       = flag.Int("dgemm", 310, "DGEMM problem dimension defining the service cost")
		wapp         = flag.Float64("wapp", 0, "service cost in MFlop (overrides -dgemm when set)")
		demand       = flag.Float64("demand", 0, "client demand in requests/second (0 = maximize)")
		outXML       = flag.String("out", "", "write deployment XML to this file ('-' for stdout)")
		outDOT       = flag.String("dot", "", "write Graphviz DOT rendering to this file")
		genN         = flag.Int("gen", 0, "generate a synthetic platform with this many nodes and exit")
		genMin       = flag.Float64("gen-min", 100, "synthetic platform: minimum node power (MFlop/s)")
		genMax       = flag.Float64("gen-max", 800, "synthetic platform: maximum node power (MFlop/s)")
		genBW        = flag.Float64("gen-bw", 100, "synthetic platform: link bandwidth (Mb/s)")
		genSeed      = flag.Int64("gen-seed", 1, "synthetic platform: random seed")
		genClusters  = flag.Int("gen-clusters", 0, "synthetic platform: multi-cluster grid with this many clusters (>= 2; cluster 0 keeps the fast intra link, the rest sit behind the inter-cluster uplink)")
		genIntra     = flag.Float64("gen-intra", 0, "multi-cluster: intra-cluster link bandwidth in Mb/s (default -gen-bw)")
		genInter     = flag.Float64("gen-inter", 0, "multi-cluster: inter-cluster uplink bandwidth in Mb/s (default intra/10)")
		logFormat    = flag.String("log-format", "text", "diagnostic log format: text, json (plan output stays on stdout)")
		logLevel     = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, error")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(*logFormat, os.Stderr, level)
	if err != nil {
		return err
	}

	if *genN > 0 {
		if *platformPath == "" {
			return fmt.Errorf("-gen requires -platform for the output path")
		}
		p, err := platform.Generate(platform.GenSpec{
			Name: "generated", N: *genN, Bandwidth: *genBW,
			MinPower: *genMin, MaxPower: *genMax, Seed: *genSeed,
			Clusters: *genClusters, IntraBandwidth: *genIntra, InterBandwidth: *genInter,
		})
		if err != nil {
			return err
		}
		if err := p.SaveJSON(*platformPath); err != nil {
			return err
		}
		logger.Info("platform written", "path", *platformPath, "platform", p.String())
		return nil
	}

	if *platformPath == "" {
		flag.Usage()
		return fmt.Errorf("missing -platform")
	}
	plat, err := platform.LoadJSON(*platformPath)
	if err != nil {
		return err
	}

	cost := *wapp
	if cost == 0 {
		cost = workload.DGEMM{N: *dgemmN}.MFlop()
	}
	req := core.Request{
		Platform: plat,
		Costs:    model.DIETDefaults(),
		Wapp:     cost,
		Demand:   workload.Demand(*demand),
	}

	planner, err := service.SelectPlanner(*plannerName)
	if err != nil {
		return err
	}
	plan, err := planner.PlanContext(context.Background(), req)
	if err != nil {
		return err
	}

	fmt.Println(plan.Summary())
	if req.Demand.Bounded() {
		fmt.Printf("demand-capped throughput: %.2f req/s (demand %.2f)\n", plan.Capped, *demand)
	}
	fmt.Printf("platform: %s\n", plat)
	fmt.Println()
	fmt.Print(plan.Hierarchy)

	if *outXML != "" {
		if *outXML == "-" {
			if err := plan.Hierarchy.WriteXML(os.Stdout); err != nil {
				return err
			}
		} else if err := plan.Hierarchy.SaveXML(*outXML); err != nil {
			return err
		} else {
			logger.Info("deployment XML written", "path", *outXML)
		}
	}
	if *outDOT != "" {
		f, err := os.Create(*outDOT)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := plan.Hierarchy.WriteDOT(f); err != nil {
			return err
		}
		logger.Info("DOT rendering written", "path", *outDOT)
	}
	return nil
}
