package stats_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"adept/internal/stats"
)

func TestSummaryStatistics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := stats.Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := stats.Max(xs); got != 9 {
		t.Errorf("Max = %g, want 9", got)
	}
	if got := stats.Median(xs); got != 4.5 {
		t.Errorf("Median = %g, want 4.5", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if stats.Mean(nil) != 0 || stats.Median(nil) != 0 {
		t.Error("empty-slice statistics should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Max(nil) should panic")
		}
	}()
	stats.Max(nil)
}

func TestMedianOdd(t *testing.T) {
	if got := stats.Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %g, want 2", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 3 + 2x, perfectly linear: slope 2, intercept 3, R = 1.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 7, 9, 11, 13}
	fit, err := stats.LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-3) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2 intercept 3", fit)
	}
	if math.Abs(fit.R-1) > 1e-12 {
		t.Errorf("R = %g, want 1", fit.R)
	}
}

func TestLinearFitFlat(t *testing.T) {
	fit, err := stats.LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 4 || fit.R != 1 {
		t.Errorf("flat fit = %+v", fit)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := stats.LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := stats.LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := stats.LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("vertical data accepted")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {90, 46},
	}
	for _, tc := range cases {
		if got := stats.Percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 10 || xs[4] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { stats.Percentile(nil, 50) },
		func() { stats.Percentile([]float64{1}, -1) },
		func() { stats.Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRelativeErrorAndTolerance(t *testing.T) {
	if got := stats.RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError = %g", got)
	}
	if got := stats.RelativeError(0, 0); got != 0 {
		t.Errorf("RelativeError(0,0) = %g", got)
	}
	if got := stats.RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelativeError(1,0) = %g, want +Inf", got)
	}
	if !stats.WithinTolerance(105, 100, 0.05) {
		t.Error("105 should be within 5% of 100")
	}
	if stats.WithinTolerance(106, 100, 0.05) {
		t.Error("106 should not be within 5% of 100")
	}
}

// Property: the fitted line's residuals are orthogonal to x (the normal
// equation), making the fit a true least-squares solution.
func TestPropertyLeastSquaresNormalEquation(t *testing.T) {
	f := func(seed uint32) bool {
		rng := seed
		next := func() float64 {
			rng = rng*1664525 + 1013904223
			return float64(rng%1000)/100 - 5
		}
		n := 10
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i) + next()/10
			y[i] = 2*x[i] + next()
		}
		fit, err := stats.LinearFit(x, y)
		if err != nil {
			return true // degenerate x spacing; nothing to check
		}
		var dot, sum float64
		for i := range x {
			r := y[i] - (fit.Intercept + fit.Slope*x[i])
			dot += r * x[i]
			sum += r
		}
		return math.Abs(dot) < 1e-6 && math.Abs(sum) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Mean is bounded by the smallest and the largest sample.
func TestPropertyMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := stats.Mean(clean)
		return m >= slices.Min(clean)-1e-9*math.Abs(m) && m <= stats.Max(clean)+1e-9*math.Abs(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
