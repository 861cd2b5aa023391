package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"adept/internal/portfolio"
)

// flightGroup coalesces concurrent planning runs by cache key
// (singleflight): the first request for a key becomes the leader and
// starts one planning run; every identical request arriving before it
// completes joins the same flight and shares its result instead of
// taking another pool slot for identical work.
//
// The run executes on a context detached from any single client, bounded
// by the leader's effective timeout — one impatient client dropping its
// connection must not kill a result a dozen others are waiting for. Each
// waiter bounds its own wait with its own request context; when the last
// waiter gives up, the flight is cancelled and retired atomically, so a
// request arriving later starts a fresh run rather than inheriting a
// doomed one.
type flightGroup struct {
	mu        sync.Mutex
	flights   map[CacheKey]*flight
	coalesced atomic.Uint64 // requests that joined an existing flight
}

// flightResult is what a flight resolves to. cached marks a run that was
// answered by a cache entry another flight landed in the meantime — no
// planner executed, and the response must say so.
type flightResult struct {
	entry    *CachedPlan
	variants []portfolio.Result
	cached   bool
	err      error
}

type flight struct {
	key     CacheKey
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{} // closed once result is final
	waiters int
	result  flightResult
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[CacheKey]*flight)}
}

// Coalesced returns the cumulative count of requests that shared another
// request's planning run.
func (g *flightGroup) Coalesced() uint64 { return g.coalesced.Load() }

// Active returns the number of flights currently in the table (planning
// runs in progress that newcomers would join).
func (g *flightGroup) Active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}

// retire removes fl from the table if it still owns its slot — it may
// already have been replaced by a successor flight for the same key.
// Callers hold g.mu.
func (g *flightGroup) retire(fl *flight) {
	if g.flights[fl.key] == fl {
		delete(g.flights, fl.key)
	}
}

// join returns the in-progress flight for key, registering the caller as
// a waiter, or starts a new flight running run(ctx) in its own goroutine.
// leader reports whether this caller started the flight. A flight whose
// context has already been cancelled (its waiters all left) is never
// joined — it is replaced by a fresh run.
func (g *flightGroup) join(key CacheKey, timeout time.Duration,
	run func(ctx context.Context) flightResult) (fl *flight, leader bool) {
	g.mu.Lock()
	if fl := g.flights[key]; fl != nil && fl.ctx.Err() == nil {
		fl.waiters++
		g.mu.Unlock()
		g.coalesced.Add(1)
		return fl, false
	}
	//adeptvet:allow ctxflow deliberate flight detach from the leader's request context; the last waiter out cancels it
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	fl = &flight{key: key, ctx: ctx, cancel: cancel, done: make(chan struct{}), waiters: 1}
	g.flights[key] = fl
	g.mu.Unlock()

	go func() {
		defer cancel()
		res := run(ctx)
		g.mu.Lock()
		g.retire(fl) // later identical requests hit the cache
		fl.result = res
		g.mu.Unlock()
		close(fl.done)
	}()
	return fl, true
}

// wait blocks until the flight completes or ctx fires. A waiter that
// gives up deregisters itself; the last one to leave cancels and retires
// the flight under the group lock — nobody is left to consume the
// result, and no newcomer may join a cancelled run.
func (g *flightGroup) wait(ctx context.Context, fl *flight) flightResult {
	select {
	case <-fl.done:
		return fl.result
	case <-ctx.Done():
		g.mu.Lock()
		fl.waiters--
		if fl.waiters == 0 {
			fl.cancel()
			g.retire(fl)
		}
		g.mu.Unlock()
		return flightResult{err: ctx.Err()}
	}
}
