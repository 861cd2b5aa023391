// Package sim is a discrete-event simulator of hierarchical NES middleware
// under the paper's machine model M(r,s,w): a computing resource has no
// internal parallelism — it either sends one message, receives one message,
// or computes, serially, through a single port.
//
// The simulator replaces the paper's Grid'5000 measurement campaign: a
// deployment hierarchy is instantiated as simulated agents and servers,
// closed-loop clients drive load through the full two-phase protocol
// (scheduling broadcast down the tree, best-server selection on the way up,
// then the service request on the selected server), and steady-state
// throughput is measured over a configurable window. Experiments compare
// these measurements against the analytic model of internal/model exactly
// the way the paper compares testbed measurements against its predictions.
package sim

import "container/heap"

// event is one scheduled callback.
type event struct {
	t   float64
	seq int64 // tie-break for deterministic FIFO ordering at equal times
	fn  func()
}

// eventQueue is a min-heap on (t, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is the simulation clock and event loop. It is single-threaded and
// fully deterministic: events at equal times fire in scheduling order.
type Engine struct {
	now    float64
	queue  eventQueue
	seq    int64
	events int64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() int64 { return e.events }

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a logic error in the protocol code.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	heap.Push(&e.queue, &event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn delay seconds from now.
func (e *Engine) After(delay float64, fn func()) {
	e.At(e.now+delay, fn)
}

// Run executes events until the queue is empty or the clock passes `until`.
// Events scheduled exactly at `until` still run.
func (e *Engine) Run(until float64) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.t > until {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.t
		e.events++
		next.fn()
	}
	if e.now < until {
		e.now = until
	}
}

// Resource models one physical node under M(r,s,w): serialised activities
// (sends, receives, computations) drawn from two lanes. The priority lane
// models interactive control-plane work (the scheduling phase's tiny
// predictions and messages) that a real middleware interleaves ahead of
// queued batch work; service without it, a deterministic simulator locks
// every closed-loop client into synchronised waves, because a scheduling
// request would wait behind an entire service backlog. Priority is
// non-preemptive, so per-request occupation accounting — what the §3
// throughput model integrates — is unchanged.
type Resource struct {
	eng      *Engine
	busy     bool
	queue    []activity // normal lane (service phase)
	priority []activity // priority lane (scheduling phase)

	// BusyTime accumulates the total occupied seconds, for utilisation
	// reporting.
	BusyTime float64
}

type activity struct {
	dur  float64
	done func()
}

// NewResource attaches a fresh idle resource to the engine.
func NewResource(eng *Engine) *Resource {
	return &Resource{eng: eng}
}

// Do enqueues a normal-lane activity lasting dur seconds; done (may be
// nil) runs when the activity completes. Negative durations panic.
func (r *Resource) Do(dur float64, done func()) {
	if dur < 0 {
		panic("sim: negative activity duration")
	}
	r.queue = append(r.queue, activity{dur: dur, done: done})
	if !r.busy {
		r.startNext()
	}
}

// DoPriority enqueues a priority-lane activity: it runs before any queued
// normal-lane activity but never interrupts the one in progress.
func (r *Resource) DoPriority(dur float64, done func()) {
	if dur < 0 {
		panic("sim: negative activity duration")
	}
	r.priority = append(r.priority, activity{dur: dur, done: done})
	if !r.busy {
		r.startNext()
	}
}

func (r *Resource) startNext() {
	var a activity
	switch {
	case len(r.priority) > 0:
		a = r.priority[0]
		r.priority = r.priority[1:]
	case len(r.queue) > 0:
		a = r.queue[0]
		r.queue = r.queue[1:]
	default:
		r.busy = false
		return
	}
	r.busy = true
	r.BusyTime += a.dur
	r.eng.After(a.dur, func() {
		if a.done != nil {
			a.done()
		}
		r.startNext()
	})
}
