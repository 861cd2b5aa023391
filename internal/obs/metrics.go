// Package obs is the daemon's observability spine: hand-rolled,
// dependency-free metric primitives (counters, gauges, log-bucketed
// histograms) behind a Registry that renders the Prometheus text
// exposition format, plus plan traces (trace.go), structured-logging
// helpers with per-request correlation IDs (log.go), and a bounded
// event journal for autonomic decisions (journal.go).
//
// Everything here is stdlib-only by design: the repo bakes in no
// third-party dependencies, and the subset of the Prometheus data model
// the daemon needs — monotone counters, instantaneous gauges, fixed
// log-spaced histogram buckets, one label dimension or none — fits in a
// few hundred lines whose hot paths are single atomic operations.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use; Inc/Add are single atomic adds.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that may go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// atomicFloat is a float64 supporting concurrent additions (CAS loop).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// labelSep joins label values into a child key; 0xff never occurs in the
// daemon's label values (endpoint names, build metadata).
const labelSep = "\xff"

// vecChild pairs a child metric with the label values that select it, so
// exposition and JSON snapshots can iterate without re-splitting keys.
type vecChild[M any] struct {
	values []string
	metric M
}

// vec is the shared one-or-more-label child table behind CounterVec,
// GaugeVec and HistogramVec.
type vec[M any] struct {
	mu       sync.RWMutex
	labels   []string
	children map[string]*vecChild[M]
	make     func() M
}

func newVec[M any](labels []string, mk func() M) *vec[M] {
	return &vec[M]{labels: labels, children: make(map[string]*vecChild[M]), make: mk}
}

func (v *vec[M]) with(values ...string) M {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels %v", len(values), len(v.labels), v.labels))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c.metric
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c.metric
	}
	c = &vecChild[M]{values: append([]string(nil), values...), metric: v.make()}
	v.children[key] = c
	return c.metric
}

// do visits every child in sorted label-value order (stable exposition).
func (v *vec[M]) do(f func(values []string, m M)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		c := v.children[k]
		v.mu.RUnlock()
		if c != nil {
			f(c.values, c.metric)
		}
	}
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct {
	vec *vec[*Counter]
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.vec.with(values...) }

// Do visits every child counter in sorted label order.
func (v *CounterVec) Do(f func(values []string, c *Counter)) { v.vec.do(f) }

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec struct {
	vec *vec[*Gauge]
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.vec.with(values...) }

// Do visits every child gauge in sorted label order.
func (v *GaugeVec) Do(f func(values []string, g *Gauge)) { v.vec.do(f) }

// HistogramVec is a family of histograms partitioned by label values;
// every child shares the vec's bucket boundaries.
type HistogramVec struct {
	vec *vec[*Histogram]
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.vec.with(values...) }

// Do visits every child histogram in sorted label order.
func (v *HistogramVec) Do(f func(values []string, h *Histogram)) { v.vec.do(f) }

// Registry holds named metric families and renders them as the
// Prometheus text exposition (prom.go). Registration happens at
// construction time and panics on programmer error (duplicate or
// malformed names), exactly like the upstream client library.
type Registry struct {
	mu         sync.Mutex
	families   map[string]collector
	hasRuntime bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]collector)}
}

// register adds a family, panicking on duplicates or invalid names.
func (r *Registry) register(name string, c collector) {
	if err := checkMetricName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", name))
	}
	r.families[name] = c
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, &counterFamily{name: name, help: help, get: c.Value})
	return c
}

// CounterFunc registers a counter family whose value is read from fn at
// exposition time — the bridge for components that already keep their
// own atomic counters (pool executed/rejected, coalesced flights).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, &counterFamily{name: name, help: help, get: fn})
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	checkLabels(labels)
	v := &CounterVec{vec: newVec(labels, func() *Counter { return &Counter{} })}
	r.register(name, &counterVecFamily{name: name, help: help, labels: labels, v: v})
	return v
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, &gaugeFamily{name: name, help: help, get: g.Value})
	return g
}

// GaugeFunc registers a gauge family whose value is read from fn at
// exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFamily{name: name, help: help, get: fn})
}

// GaugeVec registers and returns a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	checkLabels(labels)
	v := &GaugeVec{vec: newVec(labels, func() *Gauge { return &Gauge{} })}
	r.register(name, &gaugeVecFamily{name: name, help: help, labels: labels, v: v})
	return v
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (strictly increasing, +Inf implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, &histogramFamily{name: name, help: help, one: h})
	return h
}

// HistogramVec registers and returns a labelled histogram family; every
// child shares the bucket boundaries.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	checkLabels(labels)
	checkBuckets(buckets)
	bounds := append([]float64(nil), buckets...)
	v := &HistogramVec{vec: newVec(labels, func() *Histogram { return newHistogram(bounds) })}
	r.register(name, &histogramFamily{name: name, help: help, labels: labels, v: v})
	return v
}

// RegisterRuntime adds the Go runtime gauge families (goroutines, heap,
// GC counters) to the registry. Idempotent.
func (r *Registry) RegisterRuntime() {
	r.mu.Lock()
	if r.hasRuntime {
		r.mu.Unlock()
		return
	}
	r.hasRuntime = true
	r.mu.Unlock()
	r.register("go_runtime", runtimeCollector{})
}

// Handler returns an http.Handler serving the registry's Prometheus
// text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", expositionContentType)
		_ = r.WriteText(w)
	})
}

// checkMetricName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, ch := range name {
		ok := ch == '_' || ch == ':' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
			(i > 0 && ch >= '0' && ch <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid metric name %q", name)
		}
	}
	return nil
}

// checkLabels enforces the label-name charset [a-zA-Z_][a-zA-Z0-9_]*
// and that at least one label is present (a zero-label vec is a scalar —
// use the scalar constructor).
func checkLabels(labels []string) {
	if len(labels) == 0 {
		panic("obs: vec families need at least one label")
	}
	for _, l := range labels {
		if l == "" {
			panic("obs: empty label name")
		}
		for i, ch := range l {
			ok := ch == '_' ||
				(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
				(i > 0 && ch >= '0' && ch <= '9')
			if !ok {
				panic(fmt.Sprintf("obs: invalid label name %q", l))
			}
		}
	}
}
