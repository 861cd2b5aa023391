// Package stats provides the small set of statistics primitives used across
// the ADePT code base: summary statistics, least-squares linear regression
// (used to fit the agent reply-processing cost Wrep against hierarchy degree,
// as in Table 3 of the paper), and series utilities for the experiment
// harness.
//
// Everything operates on float64 slices and is deterministic; no randomness
// lives here.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator needs more samples than
// were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the largest value in xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Median returns the median of xs without modifying the input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank interpolation, without modifying the input. It panics on an
// empty slice or out-of-range p — both are programming errors here.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of [0,100]")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p == 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(cp) {
		return cp[len(cp)-1]
	}
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}

// Fit holds the result of a simple least-squares linear regression
// y = Intercept + Slope*x.
type Fit struct {
	Slope     float64
	Intercept float64
	// R is the Pearson correlation coefficient between x and y. The paper
	// reports R = 0.97 for the Wrep-versus-degree fit; we reproduce the
	// same statistic for our calibration data.
	R float64
}

// LinearFit performs an ordinary least-squares fit of y against x.
// It requires len(x) == len(y) >= 2 and at least two distinct x values.
func LinearFit(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, errors.New("stats: LinearFit length mismatch")
	}
	if len(x) < 2 {
		return Fit{}, ErrInsufficientData
	}
	n := float64(len(x))
	mx, my := Mean(x), Mean(y)
	var sxx, syy, sxy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 {
		return Fit{}, errors.New("stats: LinearFit requires at least two distinct x values")
	}
	slope := sxy / sxx
	fit := Fit{
		Slope:     slope,
		Intercept: my - slope*mx,
	}
	if syy > 0 {
		fit.R = sxy / math.Sqrt(sxx*syy)
	} else {
		// A perfectly flat response is perfectly predicted by a flat line.
		fit.R = 1
	}
	_ = n
	return fit, nil
}

// RelativeError returns |got-want| / |want|. A zero want with a nonzero got
// returns +Inf; two zeros return 0.
func RelativeError(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// WithinTolerance reports whether got is within rel relative error of want.
func WithinTolerance(got, want, rel float64) bool {
	return RelativeError(got, want) <= rel
}
