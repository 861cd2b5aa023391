package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between the two closest ranks; xs need not be sorted and
// is left untouched. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean is the geometric mean of strictly positive values; a
// non-positive value (a plan with no throughput is a wrong plan) or an
// empty input yields 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// relGap is how much worse b reads than a, as a share of a, for a metric
// where higher (or lower) is better; negative means b reads better.
func relGap(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if higherBetter {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// div is a/b, or 0 when there is nothing to divide by (a layer with no
// samples reads 0, never NaN: the result line must stay valid JSON).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return div(sum, float64(len(xs)))
}
