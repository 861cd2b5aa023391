package autonomic_test

import (
	"math"
	"testing"
	"testing/quick"

	"adept/internal/autonomic"
)

func window(server string, seconds float64) autonomic.Observation {
	return autonomic.Observation{ServiceSeconds: map[string]float64{server: seconds}}
}

// A level shift — 1 s per request for 20 windows, then 4 s for 20 (the
// §5.3 background-load scenario): the estimate follows the shift, where
// an arithmetic mean would sit at 2.5 s.
func TestMonitorEWMATracksDrift(t *testing.T) {
	mon := autonomic.NewMonitor(0.5, testWapp)
	if _, ok := mon.EffectivePower("s1"); ok {
		t.Fatal("effective power before any observation")
	}
	for i := 0; i < 20; i++ {
		mon.Update(window("s1", 1))
	}
	if p, _ := mon.EffectivePower("s1"); math.Abs(p-testWapp) > 1e-9 {
		t.Fatalf("steady 1 s windows: effective power %g, want %g", p, testWapp)
	}
	for i := 0; i < 20; i++ {
		mon.Update(window("s1", 4))
	}
	p, ok := mon.EffectivePower("s1")
	if sec := testWapp / p; !ok || math.Abs(sec-4) > 0.01 {
		t.Errorf("after the shift the estimate is %g s, want ≈4", sec)
	}
}

// Property: the smoothed service time stays within the [min, max]
// envelope of the valid samples, and a zero, negative or NaN sample is
// not a sample.
func TestPropertyMonitorEWMABounded(t *testing.T) {
	f := func(xs []float64, aSeed uint8) bool {
		mon := autonomic.NewMonitor(0.01+float64(aSeed%99)/100, testWapp)
		min, max := math.Inf(1), math.Inf(-1)
		for _, x := range append(xs, 0, -1, math.NaN()) {
			mon.Update(window("s1", x))
			if x > 0 {
				min, max = math.Min(min, x), math.Max(max, x)
			}
		}
		p, ok := mon.EffectivePower("s1")
		if min > max {
			return !ok
		}
		sec := testWapp / p
		return ok && sec >= min*(1-1e-9) && sec <= max*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
