package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is the contract the driver reads; the Go tables are what
// the program prints. They must name the same workloads and metrics, and
// the file must stay inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}

	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(data) > 64<<10 {
		t.Errorf("paths %v, run_seconds %d, %d bytes", doc.Paths, doc.RunSeconds, len(data))
	}
	if len(doc.Workloads) != len(workloadNames()) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames()))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloadNames()[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q does not match the program's (or its why is too long)", i, w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		name(m.Name)
		if (metricSpec{m.Name, m.Unit, m.Better}) != endToEnd[i] || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d: %+v, the program has %+v", i, m, endToEnd[i])
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
	}
	if !used["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (at most 128)", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		if (metricSpec{m.Name, m.Unit, m.Better}) != perLayer[i] || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: %+v, the program has %+v", i, m, perLayer[i])
		}
	}
	for _, metric := range spanMetric {
		if !used[metric] {
			t.Errorf("span metric %s is not listed", metric)
		}
	}
}
