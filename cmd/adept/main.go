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
// Generate a synthetic platform to experiment with: -scenario takes the
// spec /v1/plan takes as its "scenario" member (package scenario), writes
// the platform it generates to -platform and exits.
//
//	adept -scenario '{"family":"clustered","n":200,"seed":1,"min_power":100,"max_power":800}' -platform out.json
//
// Or a heterogeneous-links multi-cluster grid (cluster 0 on the platform
// bandwidth, the rest behind the slow inter-cluster uplink):
//
//	adept -scenario '{"family":"cluster-grid","n":15,"clusters":3,"inter_bandwidth_mbps":2}' -platform grid.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/platform"
	"adept/internal/scenario"
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
		scenarioJSON = flag.String("scenario", "", "generate the platform this scenario spec describes (the JSON of /v1/plan's \"scenario\" member), write it to -platform and exit")
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

	if *scenarioJSON != "" {
		if *platformPath == "" {
			return fmt.Errorf("-scenario requires -platform for the output path")
		}
		dec := json.NewDecoder(strings.NewReader(*scenarioJSON))
		dec.DisallowUnknownFields()
		var spec scenario.Spec
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("-scenario: %w", err)
		}
		p, err := spec.Generate()
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
