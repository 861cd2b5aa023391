package workload_test

import (
	"math"
	"testing"

	"adept/internal/workload"
)

func TestDGEMMFlops(t *testing.T) {
	cases := []struct {
		n    int
		want float64 // MFlop = 2n³/1e6
	}{
		{10, 0.002},
		{100, 2},
		{200, 16},
		{310, 59.582},
		{1000, 2000},
	}
	for _, tc := range cases {
		d := workload.DGEMM{N: tc.n}
		if got := d.MFlop(); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("DGEMM %d: MFlop = %g, want %g", tc.n, got, tc.want)
		}
		if got := d.Flops(); got != tc.want*1e6 {
			t.Errorf("DGEMM %d: Flops = %g", tc.n, got)
		}
	}
}

func TestDGEMMString(t *testing.T) {
	if got := (workload.DGEMM{N: 310}).String(); got != "DGEMM 310x310" {
		t.Errorf("String = %q", got)
	}
}

func TestDemand(t *testing.T) {
	if workload.Unbounded.Bounded() {
		t.Error("Unbounded reports bounded")
	}
	d := workload.Demand(100)
	if !d.Bounded() {
		t.Error("100 req/s not bounded")
	}
	if got := d.Cap(250); got != 100 {
		t.Errorf("Cap(250) = %g, want 100", got)
	}
	if got := d.Cap(50); got != 50 {
		t.Errorf("Cap(50) = %g, want 50", got)
	}
	if got := workload.Unbounded.Cap(50); got != 50 {
		t.Errorf("Unbounded.Cap(50) = %g", got)
	}
}
