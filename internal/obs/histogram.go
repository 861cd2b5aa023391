package obs

import (
	"fmt"
	"sort"
)

// Histogram is a fixed-bucket histogram with log-spaced (or caller
// provided) upper bounds. Observe is lock-free: a binary search over the
// bounds plus three atomic adds. Snapshots taken concurrently with
// observations are not a consistent cut — individual counters are
// monotone, which is all Prometheus semantics require.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []Counter // len(bounds)+1; last is the +Inf overflow bucket
	sum    atomicFloat
	count  Counter
}

func checkBuckets(bounds []float64) {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %g <= %g", i, bounds[i], bounds[i-1]))
		}
	}
}

func newHistogram(bounds []float64) *Histogram {
	checkBuckets(bounds)
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]Counter, len(bounds)+1),
	}
}

// ExpBuckets returns n strictly increasing bucket upper bounds starting
// at start and multiplying by factor: the log-spaced ladder latency
// distributions want.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%g, %g, %d) invalid", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the daemon's default request-latency ladder:
// doubling buckets from 100µs to ~52s (21 bounds). A cached plan hit
// lands in the first few buckets, a fresh 5k-node portfolio race in the
// middle, and the 30s plan-timeout ceiling stays under the last bound.
func LatencyBuckets() []float64 { return ExpBuckets(100e-6, 2, 20) }

// Observe records one value. Values land in the first bucket whose
// upper bound is >= v (Prometheus le semantics: bounds are inclusive).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Inc()
	h.count.Inc()
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Value() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Value()
	}
	return out
}

// CountAtOrBelow returns the cumulative number of observations <= the
// smallest bucket bound that is >= v (Prometheus le semantics), plus
// that effective bound. SLO latency objectives use it to count "fast
// enough" requests: thresholds snap to the bucket ladder, so callers
// should read the returned bound as the threshold actually enforced.
func (h *Histogram) CountAtOrBelow(v float64) (count uint64, bound float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i == len(h.bounds) {
		// Threshold above the largest finite bound: every observation
		// qualifies, including the +Inf overflow bucket.
		return h.Count(), h.bounds[len(h.bounds)-1]
	}
	var cum uint64
	for j := 0; j <= i; j++ {
		cum += h.counts[j].Value()
	}
	return cum, h.bounds[i]
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts
// with linear interpolation inside the containing bucket — the standard
// histogram_quantile estimate. The first bucket interpolates from zero;
// an overflow-bucket hit reports the largest finite bound (there is no
// upper edge to interpolate towards). Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.BucketCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(counts)-1 {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}
