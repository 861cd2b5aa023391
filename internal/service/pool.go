package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"adept/internal/core"
	"adept/internal/obs"
)

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("service: worker pool closed")

// ErrQueueFull is returned by Submit when every worker slot is taken and
// the waiting queue is at capacity. The HTTP layer maps it to 429 with a
// Retry-After header: under overload the daemon sheds load immediately
// instead of parking handler goroutines on a queue that cannot drain
// faster than the planners run.
var ErrQueueFull = errors.New("service: planning queue full")

// Pool bounds concurrent planning runs with a counting semaphore, so that
// an arbitrary number of concurrent HTTP clients cannot fork an arbitrary
// number of planner runs. A job runs on the goroutine that submitted it —
// the request's own, or its coalesced flight's — once it holds one of the
// worker slots; there are no pool goroutines to hand it to, and a job is
// one goroutine, whichever planner it runs: a slot is a thread. At most
// queueDepth submitters wait for a slot, in arrival order; a waiter whose
// context fires leaves the queue at once, and a running planner observes
// the same context through its PlanContext poll points.
//
// Admission is fail-fast: Submit never joins a full queue — it returns
// ErrQueueFull so callers can shed load (HTTP 429) instead of stacking up
// goroutines behind the planners. A free slot always admits, so an idle
// pool never sheds, whatever its queue depth.
type Pool struct {
	slots      chan struct{} // one token per running job; cap = workers
	quit       chan struct{}
	closed     atomic.Bool
	queueDepth int
	waiting    atomic.Int64  // submitters parked for a slot
	active     atomic.Int64  // jobs currently executing
	executed   atomic.Uint64 // jobs whose fn actually ran
	rejected   atomic.Uint64 // submissions refused with ErrQueueFull
}

// NewPool returns a pool of the given number of worker slots with room
// for queueDepth submitters waiting behind them (0 = none: a submission
// that finds every slot taken is shed).
func NewPool(workers, queueDepth int) (*Pool, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("service: pool needs at least one worker, got %d", workers)
	}
	if queueDepth < 0 {
		return nil, fmt.Errorf("service: negative queue depth %d", queueDepth)
	}
	return &Pool{
		slots:      make(chan struct{}, workers),
		quit:       make(chan struct{}),
		queueDepth: queueDepth,
	}, nil
}

// acquire takes a worker slot, waiting in the bounded queue when none is
// free. The caller releases the slot by receiving from p.slots.
func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	default:
	}
	if p.waiting.Add(1) > int64(p.queueDepth) {
		p.waiting.Add(-1)
		p.rejected.Add(1)
		return ErrQueueFull
	}
	defer p.waiting.Add(-1)
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.quit:
		return ErrPoolClosed
	}
}

// Submit runs fn on the calling goroutine once a worker slot is free and
// returns its result. When all slots are taken and the queue is full it
// fails immediately with ErrQueueFull rather than blocking the caller;
// while queued it gives up as soon as ctx fires or the pool closes.
func (p *Pool) Submit(ctx context.Context, fn func(context.Context) (*core.Plan, error)) (*core.Plan, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	//adeptvet:allow nondet enqueue timestamp for the queue-wait span; trace telemetry, not planner state
	enqueued := time.Now()
	if err := p.acquire(ctx); err != nil {
		return nil, err
	}
	defer func() { <-p.slots }()
	// Shutdown must be deterministic: a slot won after Close has fired —
	// acquire's select racing a freed slot against quit — never starts a
	// job. Nor does one whose submitter gave up while it waited.
	select {
	case <-p.quit:
		return nil, ErrPoolClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// How long the job waited for a slot — a no-op unless the submitter's
	// context carries a trace recorder.
	//adeptvet:allow nondet queue-wait latency measurement; trace telemetry, not planner state
	obs.TraceFrom(ctx).Span("queue_wait", time.Since(enqueued))
	p.active.Add(1)
	p.executed.Add(1)
	defer p.active.Add(-1)
	return fn(ctx)
}

// Active returns the number of jobs currently executing.
func (p *Pool) Active() int { return int(p.active.Load()) }

// Workers returns the number of worker slots.
func (p *Pool) Workers() int { return cap(p.slots) }

// QueueDepth returns the number of submitters waiting for a slot right
// now.
func (p *Pool) QueueDepth() int { return int(p.waiting.Load()) }

// QueueCapacity returns the configured queue bound.
func (p *Pool) QueueCapacity() int { return p.queueDepth }

// Executed returns the cumulative count of jobs whose function ran.
func (p *Pool) Executed() uint64 { return p.executed.Load() }

// Rejected returns the cumulative count of fail-fast admissions refused
// with ErrQueueFull.
func (p *Pool) Rejected() uint64 { return p.rejected.Load() }

// Closed reports whether Close has been called — the readiness probe's
// "pool accepting work" check.
func (p *Pool) Closed() bool { return p.closed.Load() }

// Close shuts the pool and returns once no job is running. Jobs already
// running finish; submitters still queued uniformly receive ErrPoolClosed
// and never run. Close keeps every slot it collects, so nothing can start
// afterwards.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.quit)
	for i := 0; i < cap(p.slots); i++ {
		p.slots <- struct{}{}
	}
}
