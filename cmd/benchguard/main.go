// Command benchguard is the planner-benchmark regression gate.
//
// It has three modes, composable in one invocation (scripts/bench.sh wires
// them into CI):
//
//	benchguard -parse bench.txt -out BENCH_plan.json
//	    Parse `go test -bench` output into a JSON summary: per benchmark,
//	    the median ns/op, B/op and allocs/op over the -count repetitions,
//	    plus the per-run ns/op samples the median was taken from.
//
//	benchguard -new BENCH_plan.json -require-speedup 10 \
//	    -speedup-pair BenchmarkHeuristicPlanNaive5k:BenchmarkHeuristicPlan5k
//	    Enforce a minimum within-run speedup ratio (numerator is the slow
//	    benchmark). Within-run ratios are machine-independent, so this
//	    gate is stable across laptops and CI runners.
//
//	benchguard -new BENCH_plan.json -require-max-ratio 2 \
//	    -max-ratio-pair BenchmarkHeuristicPlanClustered5k:BenchmarkHeuristicPlan5k
//	    The inverse gate: the first benchmark may cost at most the given
//	    multiple of the second (also a within-run, machine-independent
//	    ratio). Used to cap the overhead a feature (e.g. heterogeneous
//	    link support) may add over its baseline path.
//
//	benchguard -new BENCH_plan.json \
//	    -require-max-ns BenchmarkHeuristicPlan1M:1000000000
//	    Enforce an absolute ns/op ceiling per benchmark. Unlike the ratio
//	    gates this is machine-dependent, so it is reserved for headline
//	    latency contracts (a million-node plan stays sub-second) with the
//	    ceiling set at a comfortable multiple of the measured cost.
//
//	benchguard -base old.json -new new.json -tol 0.20 [-allocs-tol 0.20]
//	    Fail when any benchmark present in both files regressed by more
//	    than the tolerance in ns/op or allocs/op. Absolute numbers are
//	    machine-dependent: compare only files recorded on the same class
//	    of machine (CI keeps its own rolling baseline via the actions
//	    cache).
//
//	benchguard -base old.json -new new.json -roll-out merged.json
//	    Write the per-benchmark best-ever merge of the two files: the
//	    rolling baseline advances only on improvement, so sub-threshold
//	    regressions cannot ratchet it.
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
	newPath := flag.String("new", "", "freshly recorded BENCH_plan.json")
	basePath := flag.String("base", "", "baseline BENCH_plan.json to compare -new against")
	tol := flag.Float64("tol", 0.20, "allowed relative regression in ns/op")
	allocsTol := flag.Float64("allocs-tol", -1, "allowed relative regression in allocs/op (default: same as -tol)")
	rollOut := flag.String("roll-out", "", "write a best-ever merge of -base and -new (per-benchmark minima) to this path; prevents sub-threshold regressions from ratcheting the rolling baseline")
	requireSpeedup := flag.Float64("require-speedup", 0, "minimum slow/fast ns/op ratio for every -speedup-pair")
	requireMaxRatio := flag.Float64("require-max-ratio", 0, "maximum first/second ns/op ratio for every -max-ratio-pair")
	var pairs multiFlag
	flag.Var(&pairs, "speedup-pair", "slowBench:fastBench pair for -require-speedup (repeatable)")
	var ratioPairs multiFlag
	flag.Var(&ratioPairs, "max-ratio-pair", "bench:baselineBench pair for -require-max-ratio (repeatable)")
	var maxNs multiFlag
	flag.Var(&maxNs, "require-max-ns", "bench:ns absolute ns/op ceiling (repeatable)")
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

	if *requireSpeedup > 0 {
		if *newPath == "" {
			fail("-require-speedup needs -new")
		}
		cur := loadFile(*newPath)
		if len(pairs) == 0 {
			fail("-require-speedup needs at least one -speedup-pair")
		}
		for _, pair := range pairs {
			slow, fast, ok := strings.Cut(pair, ":")
			if !ok {
				fail("malformed -speedup-pair %q (want slow:fast)", pair)
			}
			sm, fm := cur.Benchmarks[slow], cur.Benchmarks[fast]
			if sm == nil || fm == nil {
				fail("speedup pair %q: benchmark missing from %s", pair, *newPath)
			}
			ratio := sm.NsPerOp / fm.NsPerOp
			fmt.Printf("benchguard: %s / %s = %.1fx (required ≥ %.1fx)\n", slow, fast, ratio, *requireSpeedup)
			if ratio < *requireSpeedup {
				fail("speedup %.2fx below required %.2fx", ratio, *requireSpeedup)
			}
		}
	}

	if *requireMaxRatio > 0 {
		if *newPath == "" {
			fail("-require-max-ratio needs -new")
		}
		cur := loadFile(*newPath)
		if len(ratioPairs) == 0 {
			fail("-require-max-ratio needs at least one -max-ratio-pair")
		}
		for _, pair := range ratioPairs {
			bench, base, ok := strings.Cut(pair, ":")
			if !ok {
				fail("malformed -max-ratio-pair %q (want bench:baseline)", pair)
			}
			bm, sm := cur.Benchmarks[bench], cur.Benchmarks[base]
			if bm == nil || sm == nil {
				fail("max-ratio pair %q: benchmark missing from %s", pair, *newPath)
			}
			ratio := bm.NsPerOp / sm.NsPerOp
			fmt.Printf("benchguard: %s / %s = %.2fx (required ≤ %.2fx)\n", bench, base, ratio, *requireMaxRatio)
			if ratio > *requireMaxRatio {
				fail("ratio %.2fx above allowed %.2fx", ratio, *requireMaxRatio)
			}
		}
	}

	if len(maxNs) > 0 {
		if *newPath == "" {
			fail("-require-max-ns needs -new")
		}
		cur := loadFile(*newPath)
		for _, pair := range maxNs {
			name, limStr, ok := strings.Cut(pair, ":")
			if !ok {
				fail("malformed -require-max-ns %q (want bench:ns)", pair)
			}
			lim, err := strconv.ParseFloat(limStr, 64)
			if err != nil || lim <= 0 {
				fail("malformed -require-max-ns limit %q", limStr)
			}
			m := cur.Benchmarks[name]
			if m == nil {
				fail("max-ns gate %q: benchmark missing from %s", name, *newPath)
			}
			fmt.Printf("benchguard: %s = %.0f ns/op (required ≤ %.0f)\n", name, m.NsPerOp, lim)
			if m.NsPerOp > lim {
				fail("%s ns/op %.0f above ceiling %.0f", name, m.NsPerOp, lim)
			}
		}
	}

	// -roll-out is a merge operation, not a gate: the tolerance compare
	// runs only when no merge was requested (CI gates first, rolls after).
	if *basePath != "" && *rollOut == "" {
		if *newPath == "" {
			fail("-base needs -new")
		}
		if *allocsTol < 0 {
			*allocsTol = *tol
		}
		base, cur := loadFile(*basePath), loadFile(*newPath)
		regressed := 0
		compared := 0
		for name, b := range base.Benchmarks {
			c, ok := cur.Benchmarks[name]
			if !ok {
				fmt.Printf("benchguard: %s missing from new run (skipped)\n", name)
				continue
			}
			compared++
			if r := rel(c.NsPerOp, b.NsPerOp); r > *tol {
				fmt.Fprintf(os.Stderr, "benchguard: %s ns/op regressed %.1f%% (%.0f -> %.0f)\n", name, 100*r, b.NsPerOp, c.NsPerOp)
				regressed++
			}
			if r := rel(c.AllocsPerOp, b.AllocsPerOp); r > *allocsTol {
				fmt.Fprintf(os.Stderr, "benchguard: %s allocs/op regressed %.1f%% (%.0f -> %.0f)\n", name, 100*r, b.AllocsPerOp, c.AllocsPerOp)
				regressed++
			}
		}
		if regressed > 0 {
			fail("%d metric(s) regressed beyond tolerance", regressed)
		}
		fmt.Printf("benchguard: %d benchmarks within tolerance (ns %.0f%%, allocs %.0f%%) of baseline\n", compared, 100**tol, 100**allocsTol)
	}

	if *rollOut != "" {
		if *newPath == "" {
			fail("-roll-out needs -new")
		}
		cur := loadFile(*newPath)
		merged := &File{Benchmarks: map[string]*Metrics{}}
		if *basePath != "" {
			if base, err := os.ReadFile(*basePath); err == nil {
				var f File
				if err := json.Unmarshal(base, &f); err == nil {
					for name, m := range f.Benchmarks {
						cp := *m
						merged.Benchmarks[name] = &cp
					}
				}
			}
		}
		for name, c := range cur.Benchmarks {
			b, ok := merged.Benchmarks[name]
			if !ok {
				cp := *c
				merged.Benchmarks[name] = &cp
				continue
			}
			// Keep the best-ever value per metric: a run that passed the
			// tolerance gate but was slightly slower must not become the
			// new yardstick, or sub-threshold regressions compound.
			b.NsPerOp = min(b.NsPerOp, c.NsPerOp)
			b.BytesPerOp = min(b.BytesPerOp, c.BytesPerOp)
			b.AllocsPerOp = min(b.AllocsPerOp, c.AllocsPerOp)
			b.Runs = c.Runs
			b.NsSamples = nil // per-metric minima are no run's samples
		}
		data, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*rollOut, data, 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("benchguard: rolled best-ever baseline (%d benchmarks) to %s\n", len(merged.Benchmarks), *rollOut)
	}
}

// rel returns the relative increase of cur over base. The denominator is
// floored at one unit so a zero baseline (e.g. 0 allocs/op) still gates:
// rel(1000, 0) = 1000, not 0.
func rel(cur, base float64) float64 {
	if base < 1 {
		base = 1
	}
	return (cur - base) / base
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
