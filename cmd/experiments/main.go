// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments              # run everything at full scale
//	experiments table4 fig6  # run selected experiments
//	experiments -quick       # reduced scale (seconds instead of minutes)
//	experiments -list        # list experiment IDs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"adept/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick = flag.Bool("quick", false, "reduced-scale runs")
		list  = flag.Bool("list", false, "list experiment IDs and exit")
		seed  = flag.Int64("seed", 0, "override the default random seed")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	params := experiments.Defaults()
	params.Quick = *quick
	if *seed != 0 {
		params.Seed = *seed
	}

	ctx := context.Background()
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		runner, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		start := time.Now()
		rep, err := runner(ctx, params)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Print(rep.Render())
		fmt.Printf("(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
