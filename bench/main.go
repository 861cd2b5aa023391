// Command adeptbench is the repository's benchmark: it builds cmd/adeptd,
// drives a fresh daemon per workload over loopback from one closed-loop
// keep-alive connection, checks every answer, and reports the times a
// client sees — priced on a clock that follows the shared host's speed
// (ref.go) — plus, from a separate traced pass, the time each module takes. BENCHMARK.json at the repository root is its contract;
// README.md in this directory says what every number means. Run it with
// bench/run.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

func main() {
	var cfg config
	workload := flag.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames()))
	trace := flag.Int("trace", 1, "1: also run the traced pass and print per-layer metrics; 0: end-to-end metrics only")
	aa := flag.Bool("aa", false, "run the set as two interleaved sides of the same code and hold every end-to-end metric to its bound")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same op streams")
	flag.Float64Var(&cfg.seconds, "seconds", 28, "length of the measured window")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for results.json, inputs-*.json, trace.json and daemon logs")
	flag.Parse()
	cfg.traced = *trace != 0

	// SIGINT and SIGTERM cancel the run; every daemon is killed and reaped
	// by the deferred stops on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, cfg, *workload, *aa)
	cancel()
	os.Exit(code)
}

func run(ctx context.Context, cfg config, workload string, aa bool) int {
	names := workloadNames()
	if workload != "all" {
		names = []string{workload}
	}
	if flag.NArg() > 0 || cfg.seconds <= 0 || !slices.Contains(workloadNames(), names[0]) {
		fmt.Fprintln(os.Stderr, "adeptbench: bad arguments")
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "adeptbench:", err)
		return 1
	}
	buildDir, err := filepath.Abs(".build")
	if err == nil {
		err = os.MkdirAll(buildDir, 0o755)
	}
	if err == nil {
		cfg.daemonBin = filepath.Join(buildDir, "adeptd")
		err = buildDaemon(ctx, moduleRoot, cfg.daemonBin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adeptbench:", err)
		return 1
	}

	if aa {
		return runAA(ctx, cfg, names)
	}
	results, err := runSet(ctx, cfg, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adeptbench:", err)
		return 1
	}
	if err := writeOutputs(cfg, results); err != nil {
		fmt.Fprintln(os.Stderr, "adeptbench:", err)
		return 1
	}
	code := 0
	for _, r := range results {
		if !r.Correct {
			code = 1
		}
	}
	// The last line of standard output is the machine-readable result of
	// the (last) workload run.
	fmt.Println(resultLine(results[len(results)-1], cfg.traced))
	return code
}

func runSet(ctx context.Context, cfg config, names []string) ([]*result, error) {
	var results []*result
	for _, name := range names {
		r, err := runWorkload(ctx, cfg, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		printResult(r)
		results = append(results, r)
	}
	return results, nil
}

// resultLine renders the one-line JSON result: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
func resultLine(r *result, traced bool) string {
	metrics := r.EndToEnd
	if traced {
		metrics = r.PerLayer
	}
	line, err := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		// A NaN or Inf metric: report the run as wrong rather than print nothing.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, max(1, r.Attempted), r.Failed)
	}
	return string(line)
}

func printResult(r *result) {
	fmt.Printf("== %s  seed %d  window %gs  %d ops attempted, %d failed, %d plan samples\n", r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.PlanSamples)
	fmt.Printf("   setups %.3f s; stream %s\n", r.SetupSeconds, r.inputs.StreamSHA256[:16])
	for _, m := range endToEnd {
		fmt.Printf("   %-34s %14.4f %s\n", m.Name, r.EndToEnd[m.Name].Value, m.Unit)
	}
	if len(r.PerLayer) > 0 {
		fmt.Println("   -- per layer (traced pass; adeptd.* counters and host.* over the window)")
		for _, m := range perLayer {
			fmt.Printf("   %-34s %14.4f %s\n", m.Name, r.PerLayer[m.Name].Value, m.Unit)
		}
	}
	for _, w := range r.Warnings {
		fmt.Println("   WARNING:", w)
	}
	for _, g := range r.Guards {
		fmt.Println("   GUARD RAIL BROKEN:", g)
	}
	for _, f := range r.Failures {
		fmt.Println("   FAILED:", f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeOutputs writes results.json, one inputs-<workload>.json per
// workload and, after a traced run, trace.json.
func writeOutputs(cfg config, results []*result) error {
	if err := writeJSON(cfg.outPath("results.json"), results); err != nil {
		return err
	}
	type workloadTrace struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var traces []workloadTrace
	for _, r := range results {
		if err := writeJSON(cfg.outPath("inputs-"+r.Workload+".json"), r.inputs); err != nil {
			return err
		}
		if r.spans != nil {
			traces = append(traces, workloadTrace{r.Workload, r.spans})
		}
	}
	if traces == nil {
		return nil
	}
	return writeJSON(cfg.outPath("trace.json"), traces)
}

// contract is the part of BENCHMARK.json the A/A mode reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaRounds is how many runs of a workload each side of an A/A comparison
// takes the median of. One run against one run cannot tell the program
// from the host (README, "A/A"); medians of interleaved runs can.
const aaRounds = 3

// runAA measures every workload 2·aaRounds times with identical settings,
// in the order A B B A A B so that neither side always runs first, and
// holds the two sides' medians of every end-to-end metric to its bound
// from BENCHMARK.json: two sets of runs of the same code must agree within
// what the benchmark will later call a regression. rho_geomean, which the
// seed fixes, must read exactly the same on every run.
func runAA(ctx context.Context, cfg config, names []string) int {
	var c contract
	data, err := os.ReadFile(filepath.Join(moduleRoot, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adeptbench: BENCHMARK.json:", err)
		return 1
	}
	cfg.traced = false
	code := 0
	table := "\n| workload | metric | A | B | gap | bound | |\n|---|---|---|---|---|---|---|\n"
	for _, name := range names {
		var sides [2]map[string][]float64
		sides[0], sides[1] = map[string][]float64{}, map[string][]float64{}
		failed := [2]int{}
		for k := 0; k < 2*aaRounds; k++ {
			side := (k + 1) / 2 % 2
			r, err := runWorkload(ctx, cfg, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "adeptbench: %s: %v\n", name, err)
				return 1
			}
			fmt.Printf("-- side %c\n", 'A'+side)
			printResult(r)
			if !r.Correct {
				code = 1
			}
			failed[side] += r.Failed
			for _, m := range c.EndToEnd {
				sides[side][m.Name] = append(sides[side][m.Name], r.EndToEnd[m.Name].Value)
			}
		}
		for _, m := range c.EndToEnd {
			a, b := sides[0][m.Name], sides[1][m.Name]
			va, vb := median(a), median(b)
			// Either side may be the worse one: the gap is symmetric.
			gap := math.Max(relGap(va, vb, m.Better == "higher"), relGap(vb, va, m.Better == "higher"))
			bound := m.Bound
			if m.Name == "rho_geomean" {
				// The bound in BENCHMARK.json is for runs on different seeds.
				all := append(append([]float64(nil), a...), b...)
				gap, bound = relGap(slices.Min(all), slices.Max(all), false), 0
			}
			verdict := "PASS"
			if gap > bound {
				verdict, code = "FAIL", 1
			}
			table += fmt.Sprintf("| %s | %s | %.4f | %.4f | %.1f%% | %.0f%% | %s |\n", name, m.Name, va, vb, 100*gap, 100*bound, verdict)
		}
		verdict := "PASS"
		if failed != [2]int{} {
			verdict = "FAIL" // the runs were already not correct
		}
		table += fmt.Sprintf("| %s | failed ops | %d | %d | | 0 | %s |\n", name, failed[0], failed[1], verdict)
	}
	fmt.Print(table)
	return code
}
