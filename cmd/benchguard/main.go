// Command benchguard records the planner kernel benchmarks and holds them
// to the few gates that mean the same thing on every machine, or that are a
// stated contract. It is not a regression detector: absolute ns/op moves
// with the host, so a performance claim cites BENCHMARK.json (bench/run.sh,
// interleaved pairs against the parent commit), never this tool.
//
// The modes compose in one invocation (scripts/bench.sh wires them up):
//
//	benchguard -parse bench.txt -out BENCH_plan.json
//	    Parse `go test -bench` output into a JSON summary: per benchmark,
//	    the median ns/op, B/op and allocs/op over the -count repetitions,
//	    plus the per-run ns/op samples the median was taken from.
//
//	benchguard -new BENCH_plan.json -require-speedup 10 \
//	    -speedup-pair BenchmarkHeuristicPlanNaive5k:BenchmarkHeuristicPlan5k
//	    Enforce a minimum within-run ratio between two benchmarks (the
//	    first is the slow one). Within-run ratios are machine-independent.
//
//	benchguard -new BENCH_plan.json -require-max-ratio 2 \
//	    -max-ratio-pair BenchmarkHeuristicPlanClustered5k:BenchmarkHeuristicPlan5k
//	    The inverse gate: the first benchmark may cost at most the given
//	    multiple of the second. Caps the overhead a feature (heterogeneous
//	    links) may add over its baseline path.
//
//	benchguard -new BENCH_plan.json \
//	    -require-max-ns BenchmarkHeuristicPlan1M:1000000000
//	    Enforce an absolute ns/op ceiling. Machine-dependent, so reserved
//	    for headline latency contracts (a million-node plan stays
//	    sub-second) with the ceiling at a comfortable multiple of the
//	    measured cost.
//
//	benchguard -new BENCH_plan.json \
//	    -require-max-bytes BenchmarkServicePlanScenarioCold100k:1048576
//	    Enforce an absolute B/op ceiling. What a benchmark allocates does
//	    not drift with the host the way its ns/op does, so the ceiling can
//	    sit close to the measured figure.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"adept/internal/stats"
)

// Metrics is one benchmark's result: each figure is the median over Runs
// repetitions, so one descheduled run cannot move a gate.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Runs        int     `json:"runs"`
	// NsSamples holds the per-run ns/op values in run order, kept so a
	// reader can see the spread behind the median.
	NsSamples []float64 `json:"ns_samples,omitempty"`
}

// File is the BENCH_plan.json schema.
type File struct {
	Benchmarks map[string]*Metrics `json:"benchmarks"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	parse := flag.String("parse", "", "path to `go test -bench` output to parse")
	out := flag.String("out", "BENCH_plan.json", "JSON output path for -parse")
	newPath := flag.String("new", "", "recorded BENCH_plan.json the gates read")
	requireSpeedup := flag.Float64("require-speedup", 0, "minimum slow/fast ns/op ratio for every -speedup-pair")
	requireMaxRatio := flag.Float64("require-max-ratio", 0, "maximum first/second ns/op ratio for every -max-ratio-pair")
	var pairs, ratioPairs, maxNs, maxBytes multiFlag
	flag.Var(&pairs, "speedup-pair", "slowBench:fastBench pair for -require-speedup (repeatable)")
	flag.Var(&ratioPairs, "max-ratio-pair", "bench:baselineBench pair for -require-max-ratio (repeatable)")
	flag.Var(&maxNs, "require-max-ns", "bench:ns absolute ns/op ceiling (repeatable)")
	flag.Var(&maxBytes, "require-max-bytes", "bench:bytes absolute B/op ceiling (repeatable)")
	flag.Parse()

	if *parse != "" {
		f, err := parseBenchOutput(*parse)
		if err != nil {
			fail("%v", err)
		}
		if len(f.Benchmarks) == 0 {
			fail("no benchmark lines found in %s", *parse)
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("benchguard: wrote %d benchmarks to %s\n", len(f.Benchmarks), *out)
	}

	if *requireSpeedup <= 0 && *requireMaxRatio <= 0 && len(maxNs) == 0 && len(maxBytes) == 0 {
		return
	}
	if *newPath == "" {
		fail("the gates need -new")
	}
	cur := loadFile(*newPath)
	// bench looks one benchmark of a gate up in the recorded file.
	bench := func(gate, name string) *Metrics {
		m := cur.Benchmarks[name]
		if m == nil {
			fail("%s: benchmark %s missing from %s", gate, name, *newPath)
		}
		return m
	}
	// ratio reads a first:second pair and returns first/second in ns/op.
	ratio := func(gate, pair string) (first, second string, r float64) {
		first, second, ok := strings.Cut(pair, ":")
		if !ok {
			fail("malformed %s %q (want first:second)", gate, pair)
		}
		return first, second, bench(gate, first).NsPerOp / bench(gate, second).NsPerOp
	}
	if *requireSpeedup > 0 && len(pairs) == 0 {
		fail("-require-speedup needs at least one -speedup-pair")
	}
	for _, pair := range pairs {
		slow, fast, r := ratio("-speedup-pair", pair)
		fmt.Printf("benchguard: %s / %s = %.1fx (required ≥ %.1fx)\n", slow, fast, r, *requireSpeedup)
		if r < *requireSpeedup {
			fail("speedup %.2fx below required %.2fx", r, *requireSpeedup)
		}
	}
	if *requireMaxRatio > 0 && len(ratioPairs) == 0 {
		fail("-require-max-ratio needs at least one -max-ratio-pair")
	}
	for _, pair := range ratioPairs {
		first, base, r := ratio("-max-ratio-pair", pair)
		fmt.Printf("benchguard: %s / %s = %.2fx (required ≤ %.2fx)\n", first, base, r, *requireMaxRatio)
		if r > *requireMaxRatio {
			fail("ratio %.2fx above allowed %.2fx", r, *requireMaxRatio)
		}
	}
	// ceiling reads a bench:limit pair and holds the benchmark's figure in
	// unit, as read by value, to the limit.
	ceiling := func(gate, unit, pair string, value func(*Metrics) float64) {
		name, limStr, ok := strings.Cut(pair, ":")
		if !ok {
			fail("malformed %s %q (want bench:limit)", gate, pair)
		}
		lim, err := strconv.ParseFloat(limStr, 64)
		if err != nil || lim <= 0 {
			fail("malformed %s limit %q", gate, limStr)
		}
		v := value(bench(gate, name))
		fmt.Printf("benchguard: %s = %.0f %s (required ≤ %.0f)\n", name, v, unit, lim)
		if v > lim {
			fail("%s %s %.0f above ceiling %.0f", name, unit, v, lim)
		}
	}
	for _, pair := range maxNs {
		ceiling("-require-max-ns", "ns/op", pair, func(m *Metrics) float64 { return m.NsPerOp })
	}
	for _, pair := range maxBytes {
		ceiling("-require-max-bytes", "B/op", pair, func(m *Metrics) float64 { return m.BytesPerOp })
	}
}

func loadFile(path string) *File {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		fail("%s: %v", path, err)
	}
	return &f
}

// parseBenchOutput reads standard `go test -bench -benchmem` output.
// Repeated lines for the same benchmark (-count > 1) are kept as samples
// and summarised by their median.
func parseBenchOutput(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	type samples struct{ ns, bytes, allocs []float64 }
	runs := map[string]*samples{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// "BenchmarkName-8  N  123 ns/op  45 B/op  6 allocs/op"
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := runs[name]
		if m == nil {
			m = &samples{}
			runs[name] = m
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.ns = append(m.ns, v)
			case "B/op":
				m.bytes = append(m.bytes, v)
			case "allocs/op":
				m.allocs = append(m.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	f := &File{Benchmarks: map[string]*Metrics{}}
	for name, m := range runs {
		if len(m.ns) == 0 || len(m.bytes) != len(m.ns) || len(m.allocs) != len(m.ns) {
			return nil, fmt.Errorf("%s: %s has %d ns/op, %d B/op and %d allocs/op values (need -benchmem output)",
				path, name, len(m.ns), len(m.bytes), len(m.allocs))
		}
		f.Benchmarks[name] = &Metrics{
			NsPerOp:     stats.Median(m.ns),
			BytesPerOp:  stats.Median(m.bytes),
			AllocsPerOp: stats.Median(m.allocs),
			Runs:        len(m.ns),
			NsSamples:   m.ns,
		}
	}
	return f, nil
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }
