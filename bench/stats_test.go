package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.95, 38.5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %g, want 7", got)
	}
}

func TestSliceWindowMedian(t *testing.T) {
	// Four 5 s slices from t = 10 s, on a host at nominal speed until
	// t = 20 s and at half speed after (the slots themselves are too short
	// to matter): 100 ops per second of host time throughout, but for a
	// stall in the third slice.
	c := &hostClock{slots: []slot{{9, 9 + refNominal}, {19.99, 19.99 + refNominal}, {20, 20 + 2*refNominal}, {40, 40 + 2*refNominal}}}
	var samples []sample
	add := func(from, to float64, n int) {
		for i := 0; i < n; i++ {
			end := seconds(from + (to-from)*(float64(i)+0.5)/float64(n))
			samples = append(samples, sample{kind: opPlan, start: end - 1, end: end, ok: true})
		}
	}
	add(10, 15, 500)
	add(15, 20, 500)
	add(21, 22, 10) // the stalled slice, on the slow host
	add(25, 30, 250)
	samples = append(samples, sample{kind: opPlan, start: seconds(12), end: seconds(13)}) // a failed op counts for nothing
	cpuAt := []float64{0, 5, 10, 10.2, 15.2}
	sl := sliceWindow(c, 10, 5, samples, cpuAt)
	if len(sl.hostRate) != 4 {
		t.Fatalf("%d slices, want 4", len(sl.hostRate))
	}
	if got := median(sl.hostRate); math.Abs(got-100) > 0.5 {
		t.Errorf("median host-clock rate of %v = %g, want 100 (the stalled slice must not drag it to the mean)", sl.hostRate, got)
	}
	if math.Abs(sl.wallRate[0]-100) > 0.5 || math.Abs(sl.wallRate[3]-50) > 0.5 {
		t.Errorf("wall-clock rates %v, want 100 in the first slice and 50 in the last", sl.wallRate)
	}
	// 10 ms of CPU per op on the wall clock in the first slice and 20 in
	// the last, which the half-speed host prices at 10 again.
	if math.Abs(sl.wallCPUMS[0]-10) > 0.1 || math.Abs(sl.wallCPUMS[3]-20) > 0.1 || math.Abs(sl.hostCPUMS[3]-10) > 0.1 {
		t.Errorf("CPU per op: wall %v, host %v", sl.wallCPUMS, sl.hostCPUMS)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %g, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %g, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %g, want 0", got)
	}
}

func TestRelGap(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		higher bool
		want   float64
	}{
		{100, 90, true, 0.10},   // throughput fell by a tenth
		{100, 110, true, -0.10}, // throughput rose: better
		{10, 12, false, 0.20},   // latency rose by a fifth
		{10, 8, false, -0.20},
		{0, 0, false, 0},
	} {
		if got := relGap(c.a, c.b, c.higher); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("relGap(%g, %g, higher=%v) = %g, want %g", c.a, c.b, c.higher, got, c.want)
		}
	}
	if got := relGap(0, 1, false); !math.IsInf(got, 1) {
		t.Errorf("relGap from 0 = %g, want +Inf", got)
	}
}
