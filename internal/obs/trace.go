package obs

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// PhaseSpan is one timed phase of a plan's lifecycle.
type PhaseSpan struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

// VariantSpan summarises one portfolio variant's run inside a trace.
type VariantSpan struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Winner    bool    `json:"winner"`
	Skipped   bool    `json:"skipped,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// PlanTrace is the structured record of where one plan request spent its
// time: service phases (cache lookup, flight wait, render), planner
// phases (sort, growth, snapshot scan, replay), work counters
// (candidate scans, evaluator ops, refinement moves), string attributes
// (snapshot winner kind), and — for portfolio runs — per-variant
// timings plus the winning variant.
type PlanTrace struct {
	RequestID string            `json:"request_id,omitempty"`
	Phases    []PhaseSpan       `json:"phases"`
	Counters  map[string]int64  `json:"counters,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	Variants  []VariantSpan     `json:"variants,omitempty"`
	Winner    string            `json:"winner,omitempty"`
}

// LogValue renders the trace compactly for slog attachment: phase
// durations and the winner, without the full counter map.
func (t *PlanTrace) LogValue() slog.Value {
	if t == nil {
		return slog.Value{}
	}
	attrs := make([]slog.Attr, 0, len(t.Phases)+1)
	for _, p := range t.Phases {
		attrs = append(attrs, slog.Float64(p.Name+"_ms", p.DurationMS))
	}
	if t.Winner != "" {
		attrs = append(attrs, slog.String("winner", t.Winner))
	}
	return slog.GroupValue(attrs...)
}

// TraceRecorder accumulates a PlanTrace. All methods are nil-receiver
// safe and do nothing on a nil recorder, so instrumented code paths can
// call unconditionally: with tracing off (the default) the recorder in
// context is nil and every call is a pointer test.
//
// A mutex guards the maps and slices: the recorder crosses goroutines
// when a coalesced flight runs the plan on a detached context (the
// pool's queue-wait span is recorded there too). The handler only reads
// the trace after the flight's done channel closes, which orders all
// writes before the read.
type TraceRecorder struct {
	mu       sync.Mutex
	phases   []PhaseSpan
	counters map[string]int64
	attrs    map[string]string
	variants []VariantSpan
	winner   string
}

// NewTraceRecorder returns an empty recorder.
func NewTraceRecorder() *TraceRecorder { return &TraceRecorder{} }

// noopEnd is returned by Phase on a nil recorder, so the trace-off path
// allocates no closure.
var noopEnd = func() {}

// Phase starts a named phase and returns the function that ends it,
// recording the elapsed wall time. Typical use:
//
//	defer tr.Phase("grow")()
func (r *TraceRecorder) Phase(name string) func() {
	if r == nil {
		return noopEnd
	}
	start := time.Now()
	return func() { r.Span(name, time.Since(start)) }
}

// Span records an already-measured phase duration.
func (r *TraceRecorder) Span(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phases = append(r.phases, PhaseSpan{Name: name, DurationMS: float64(d) / float64(time.Millisecond)})
	r.mu.Unlock()
}

// Count adds n to a named work counter.
func (r *TraceRecorder) Count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[string]int64, 8)
	}
	r.counters[name] += n
	r.mu.Unlock()
}

// Set records a string attribute (e.g. which snapshot kind won).
func (r *TraceRecorder) Set(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.attrs == nil {
		r.attrs = make(map[string]string, 4)
	}
	r.attrs[key] = value
	r.mu.Unlock()
}

// Variant appends one portfolio variant summary.
func (r *TraceRecorder) Variant(v VariantSpan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.variants = append(r.variants, v)
	r.mu.Unlock()
}

// SetWinner records the winning portfolio variant's name.
func (r *TraceRecorder) SetWinner(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.winner = name
	for i := range r.variants {
		r.variants[i].Winner = r.variants[i].Name == name
	}
	r.mu.Unlock()
}

// Trace snapshots the accumulated state into a PlanTrace. Variants are
// sorted by name, whatever order they were recorded in.
func (r *TraceRecorder) Trace() *PlanTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &PlanTrace{
		Phases:   append([]PhaseSpan(nil), r.phases...),
		Variants: append([]VariantSpan(nil), r.variants...),
		Winner:   r.winner,
	}
	if len(r.counters) > 0 {
		t.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			t.Counters[k] = v
		}
	}
	if len(r.attrs) > 0 {
		t.Attrs = make(map[string]string, len(r.attrs))
		for k, v := range r.attrs {
			t.Attrs[k] = v
		}
	}
	sort.Slice(t.Variants, func(i, j int) bool { return t.Variants[i].Name < t.Variants[j].Name })
	return t
}

type traceCtxKey struct{}

// ContextWithTrace attaches a recorder to ctx. Instrumented layers
// retrieve it with TraceFrom; a nil recorder is fine and makes every
// downstream trace call a no-op.
func ContextWithTrace(ctx context.Context, r *TraceRecorder) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, r)
}

// TraceFrom returns the recorder attached to ctx, or nil.
func TraceFrom(ctx context.Context) *TraceRecorder {
	r, _ := ctx.Value(traceCtxKey{}).(*TraceRecorder)
	return r
}

// DetachTrace masks any recorder attached to ctx. Portfolio variants
// run under a detached context so that five planners' inner phases don't
// pile up under the same names in the request's recorder — the portfolio
// records per-variant summaries itself.
func DetachTrace(ctx context.Context) context.Context {
	if TraceFrom(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, (*TraceRecorder)(nil))
}
