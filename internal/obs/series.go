package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// This file is the time axis of the observability spine: a Series is a
// bounded ring of (timestamp, value) samples, and a Store samples a set
// of named sources — registry counters, gauges, histogram quantiles —
// on a caller-driven tick. Everything above point-in-time scraping (SLO
// burn rates over multi-minute windows, soak-test timelines, alert
// evaluation) reads these rings instead of re-deriving history from
// Prometheus, which the repo deliberately does not depend on.

// Point is one sample of a series.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// Series is a bounded ring of samples in non-decreasing time order.
// Appends evict the oldest sample once capacity is reached. All methods
// are safe for concurrent use; the expected shape is one writer (the
// Store's sampling tick) and any number of readers (SLO evaluation,
// HTTP snapshots).
type Series struct {
	mu   sync.Mutex
	buf  []Point
	next int // ring write index
	n    int // samples currently held
}

// NewSeries returns a series holding at most capacity samples
// (minimum 2: a delta needs two points).
func NewSeries(capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	return &Series{buf: make([]Point, capacity)}
}

// Add appends one sample. Out-of-order timestamps are accepted but make
// window queries meaningless; the Store never produces them.
func (s *Series) Add(t time.Time, v float64) {
	s.mu.Lock()
	s.buf[s.next] = Point{T: t, V: v}
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// Points returns the retained samples, oldest first.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, 0, s.n)
	start := s.next - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(start+i)%len(s.buf)])
	}
	return out
}

// Delta returns the value change over the trailing window ending at the
// latest sample: latest.V minus the value at latest.T-window. When the
// ring does not reach back that far the oldest retained sample anchors
// the delta instead, and span reports the actual interval covered —
// callers that need a full window can check span against it. ok is
// false with fewer than two samples.
func (s *Series) Delta(window time.Duration) (delta float64, span time.Duration, ok bool) {
	pts := s.Points()
	if len(pts) < 2 {
		return 0, 0, false
	}
	last := pts[len(pts)-1]
	cut := last.T.Add(-window)
	// Newest sample at or before the window start; fall back to the
	// oldest retained sample when the ring is too short.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T.After(cut) })
	anchor := pts[0]
	if i > 0 {
		anchor = pts[i-1]
	}
	if !last.T.After(anchor.T) {
		return 0, 0, false
	}
	return last.V - anchor.V, last.T.Sub(anchor.T), true
}

// source is one sampled input of a Store.
type source struct {
	name   string
	fn     func() float64
	series *Series
}

// Store samples named sources into per-source Series rings on a fixed
// tick. The tick is caller-driven (Sample with an explicit timestamp)
// so deterministic consumers — the soak harness running on simulated
// time, unit tests — control the clock; Run wraps Sample in a wall
// clock ticker for the daemon.
type Store struct {
	mu       sync.RWMutex
	capacity int
	sources  []source
	byName   map[string]*Series
}

// NewStore returns an empty store whose series each hold capacity
// samples (minimum 2).
func NewStore(capacity int) *Store {
	if capacity < 2 {
		capacity = 2
	}
	return &Store{capacity: capacity, byName: make(map[string]*Series)}
}

// Watch registers a sampled source under name and returns its series.
// Re-registering a name replaces the source function but keeps the
// series (restarted components keep their history). fn is called on
// every Sample tick and must be safe for concurrent use.
func (st *Store) Watch(name string, fn func() float64) *Series {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.byName[name]; ok {
		for i := range st.sources {
			if st.sources[i].name == name {
				st.sources[i].fn = fn
			}
		}
		return s
	}
	s := NewSeries(st.capacity)
	st.sources = append(st.sources, source{name: name, fn: fn, series: s})
	st.byName[name] = s
	return s
}

// WatchCounter samples a counter's cumulative value.
func (st *Store) WatchCounter(name string, c *Counter) *Series {
	return st.Watch(name, func() float64 { return float64(c.Value()) })
}

// WatchGauge samples a gauge's instantaneous value.
func (st *Store) WatchGauge(name string, g *Gauge) *Series {
	return st.Watch(name, g.Value)
}

// WatchQuantile samples a histogram's interpolated q-quantile.
func (st *Store) WatchQuantile(name string, h *Histogram, q float64) *Series {
	return st.Watch(name, func() float64 { return h.Quantile(q) })
}

// Sample reads every source once and appends the values at timestamp t.
// One tick is a plain loop of source reads — no allocation beyond what
// the sources themselves do — so a 1s tick over a few dozen series is
// noise next to a single planning run (BenchmarkObsStoreSample gates
// this).
func (st *Store) Sample(t time.Time) {
	st.mu.RLock()
	srcs := st.sources
	st.mu.RUnlock()
	for _, src := range srcs {
		src.series.Add(t, src.fn())
	}
}

// Run samples on a wall-clock ticker until ctx is cancelled. The first
// sample lands immediately so downstream windows have an anchor point
// as early as possible.
func (st *Store) Run(ctx context.Context, every time.Duration, onTick func(time.Time)) {
	if every <= 0 {
		every = time.Second
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	now := time.Now()
	st.Sample(now)
	if onTick != nil {
		onTick(now)
	}
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			st.Sample(now)
			if onTick != nil {
				onTick(now)
			}
		}
	}
}

// Snapshot returns every series' retained points, keyed by source name.
func (st *Store) Snapshot() map[string][]Point {
	st.mu.RLock()
	srcs := st.sources
	st.mu.RUnlock()
	out := make(map[string][]Point, len(srcs))
	for _, src := range srcs {
		out[src.name] = src.series.Points()
	}
	return out
}
