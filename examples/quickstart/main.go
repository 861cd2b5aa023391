// Quickstart: plan a deployment for a small heterogeneous platform, print
// the predicted performance, and emit the GoDIET-style XML.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/workload"
)

func main() {
	// A pool of ten heterogeneous nodes with homogeneous 100 Mb/s links —
	// powers as a Linpack mini-benchmark would report them (MFlop/s).
	plat := &platform.Platform{
		Name:      "quickstart",
		Bandwidth: 100,
		Nodes: []platform.Node{
			{Name: "node-0", Power: 760}, {Name: "node-1", Power: 720},
			{Name: "node-2", Power: 540}, {Name: "node-3", Power: 510},
			{Name: "node-4", Power: 400}, {Name: "node-5", Power: 390},
			{Name: "node-6", Power: 250}, {Name: "node-7", Power: 220},
			{Name: "node-8", Power: 160}, {Name: "node-9", Power: 120},
		},
	}

	// The application: DGEMM on 310x310 matrices, as in the paper's §5.3.
	app := workload.DGEMM{N: 310}

	req := core.Request{
		Platform: plat,
		Costs:    model.DIETDefaults(), // Table 3 parameters
		Wapp:     app.MFlop(),
	}

	plan, err := core.NewHeuristic().PlanContext(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("planning %s on %s\n\n", app, plat)
	fmt.Println(plan.Summary())
	fmt.Println()
	fmt.Print(plan.Hierarchy)
	fmt.Println()

	// The write_xml hand-off: what a deployment tool would consume.
	if err := plan.Hierarchy.WriteXML(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
