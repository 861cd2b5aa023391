// Autonomic reconfiguration walkthrough: plan a deployment, run it in the
// deterministic simulator under closed-loop load, inject a 2x background
// load on the most powerful server mid-run (the §5.3 heterogenisation
// happening live), and watch the MAPE-K loop learn the drift, replan, and
// patch the running hierarchy — no redeploy, just a handful of ops.
//
// Run with: go run ./examples/autonomic
//
// The same session through the daemon: POST /v1/autonomic/start with
// "backend":"sim" and the load phases under "drift"
// ([{"at":40,"factors":{"s1":2}}]); see README "Autonomic mode".
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"

	"adept/internal/autonomic"
	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/sim"
)

func main() {
	ctx := context.Background()
	const (
		bandwidth = 100.0 // Mbit/s
		wapp      = 10.0  // MFlop per request
		clients   = 8
		window    = 10.0 // simulated seconds per monitoring window
		driftAt   = 40.0 // when the background load lands
	)
	plat := &platform.Platform{
		Name:      "autonomic-demo",
		Bandwidth: bandwidth,
		Nodes: []platform.Node{
			{Name: "n0", Power: 400},
			{Name: "s1", Power: 200},
			{Name: "s2", Power: 150},
			{Name: "s3", Power: 150},
			{Name: "s4", Power: 100},
		},
	}

	// Plan the initial deployment for the nominal platform.
	plan, err := core.NewHeuristic().PlanContext(ctx, core.Request{
		Platform: plat, Costs: model.DIETDefaults(), Wapp: wapp,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan.Summary())
	fmt.Printf("\ninitial hierarchy:\n%s\n", plan.Hierarchy)

	// Run it in the simulator with a scheduled drift: at t=40s, a
	// background job steals half of s1 (the most powerful server).
	managed, err := sim.NewManaged(plan.Hierarchy, model.DIETDefaults(), bandwidth, wapp, clients,
		[]sim.LoadPhase{{At: driftAt, Factors: map[string]float64{"s1": 2}}})
	if err != nil {
		log.Fatal(err)
	}

	ctrl, err := autonomic.New(autonomic.Config{
		Platform:     plat,
		Costs:        model.DIETDefaults(),
		Wapp:         wapp,
		CrashWindows: -1, // drift demo: a starved server is not a crash
		MaxCycles:    20,
	}, &autonomic.SimTarget{Managed: managed, Window: window}, plan.Hierarchy)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running the MAPE-K loop: %g s windows, drift lands at t=%g s\n\n", window, driftAt)
	for cycle := 1; cycle <= 20; cycle++ {
		if err := ctrl.Step(ctx); err != nil {
			log.Fatal(err)
		}
		st := ctrl.Status()
		marker := ""
		if len(st.Adaptations) > 0 && st.Adaptations[len(st.Adaptations)-1].Cycle == cycle {
			marker = "  <- adaptation"
		}
		fmt.Printf("t=%4.0fs  throughput %6.2f req/s%s\n", managed.Now(), st.Throughput, marker)
	}

	st := ctrl.Status()
	fmt.Printf("\nadaptation history (%d patch ops total, %d full redeploys):\n",
		st.PatchOpsApplied, st.FullRedeploys)
	for _, ev := range st.Adaptations {
		fmt.Printf("  cycle %d:\n", ev.Cycle)
		for _, reason := range ev.Reasons {
			fmt.Printf("    detected: %s\n", reason)
		}
		for _, op := range ev.Ops {
			fmt.Printf("    applied:  %s\n", op)
		}
		fmt.Printf("    predicted rho %.2f -> %.2f req/s\n", ev.PredictedRhoBefore, ev.PredictedRhoAfter)
	}
	fmt.Println("\nlearned effective powers (MFlop/s):")
	for _, name := range slices.Sorted(maps.Keys(st.EffectivePowers)) {
		fmt.Printf("  %-4s %.0f\n", name, st.EffectivePowers[name])
	}
	fmt.Printf("\nfinal hierarchy (rated powers include the patch):\n%s", st.Hierarchy)
}
