package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adept/internal/core"
	"adept/internal/obs"
	"adept/internal/portfolio"
)

// PlanResponse is the JSON body answering a plan request.
type PlanResponse struct {
	Planner    string  `json:"planner"`
	Key        string  `json:"key"`
	Cached     bool    `json:"cached"`
	Coalesced  bool    `json:"coalesced,omitempty"`
	Rho        float64 `json:"rho"`
	Sched      float64 `json:"sched"`
	Service    float64 `json:"service"`
	Bottleneck string  `json:"bottleneck"`
	Capped     float64 `json:"capped"`
	NodesUsed  int     `json:"nodes_used"`
	// PoolNodes is the platform pool size the planner drew from.
	PoolNodes int `json:"pool_nodes"`
	// SpecClasses counts the distinct (power, link-bandwidth) equivalence
	// classes the class-collapsed planner bucketed the pool into; present
	// only when ClassPlanned is true.
	SpecClasses int `json:"spec_classes,omitempty"`
	// ClassPlanned reports that the heuristic ran its class-collapsed
	// path: candidate scans walked equivalence classes instead of nodes.
	ClassPlanned bool `json:"class_planned,omitempty"`
	Agents       int  `json:"agents"`
	Servers      int  `json:"servers"`
	Depth        int  `json:"depth"`
	// MinLinkBandwidth and MaxLinkBandwidth report the platform's effective
	// link-bandwidth range (equal on homogeneous-link platforms).
	MinLinkBandwidth float64 `json:"min_link_bandwidth_mbps"`
	MaxLinkBandwidth float64 `json:"max_link_bandwidth_mbps"`
	// Peer is the advertised URL of the cluster peer that actually
	// answered this request, set only when it was forwarded to the
	// content address's ring owner (or served from a retained copy of the
	// owner's answer). Empty in single-node mode and for self-owned keys.
	Peer      string  `json:"peer,omitempty"`
	XML       string  `json:"xml"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Variants reports the portfolio's rows (portfolio requests only;
	// answers served from the cache omit it — no variant ran).
	Variants []portfolio.Result `json:"variants,omitempty"`
	// Trace is the structured timing breakdown, present only when the
	// request set "trace":true. A request coalesced onto a flight that
	// another request leads carries only its own service-side phases —
	// the planner phases belong to the leader's trace.
	Trace *obs.PlanTrace `json:"trace,omitempty"`
}

// planStatus maps a planning failure to an HTTP status. A planner
// failure is a property of the request (pool too big for the exhaustive
// search, no feasible deployment, …), not a server fault — except when
// the deadline killed it (504), the client walked away (499, log-only),
// the pool shed it (429), or the daemon is shutting down (503).
func planStatus(r *http.Request, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The server-side deadline surfaces as DeadlineExceeded, so a bare
		// Canceled means someone upstream stopped caring — almost always
		// the client dropping the connection. Confirm against the request
		// context; anything else is treated as the deadline.
		if r.Context().Err() != nil {
			return statusClientClosedRequest
		}
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, errRenderPlan):
		// The planner succeeded and the daemon failed to render its
		// output: our fault, not the request's.
		return http.StatusInternalServerError
	case errors.As(err, new(requestError)):
		return http.StatusBadRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// plan answers one plan request, stage by stage: resolve (address it) →
// lookup (ask the cache) → route (ask the address's ring owner) → flight
// (on a miss, one run shared by every concurrent request with the same
// content address: runPlan) → respond. A hit touches no node: it costs the
// same whatever the size of the pool. Every failure leaves as an error for
// planStatus to grade. The resolved planInput is returned alongside the
// response so callers that need the model inputs or the platform itself
// (planForLaunch) do not resolve — and re-hit the registry — a second time.
func (s *Server) plan(r *http.Request, pr *PlanRequest) (*PlanResponse, *planInput, error) {
	// The clock starts before resolve: elapsed_ms reports all of what
	// answering the request cost, content-addressing it included.
	//adeptvet:allow nondet plan latency measurement; reporting only, the plan itself is deterministic
	start := time.Now()
	// tr stays nil unless the request asked for a trace; every recorder
	// method is a no-op on nil, so the default path pays one pointer test
	// per instrumentation point and allocates nothing.
	var tr *obs.TraceRecorder
	if pr.Trace {
		tr = obs.NewTraceRecorder()
	}
	endResolve := tr.Phase("resolve")
	in, err := s.resolve(pr)
	endResolve()
	if err != nil {
		// Whatever resolve refuses is a fault of the request.
		return nil, nil, requestError{err}
	}

	if !pr.NoCache {
		// Lookup, not Get: the miss is charged in runPlan, so requests that
		// coalesce onto an existing flight count no miss of their own.
		endLookup := tr.Phase("cache_lookup")
		entry, ok := s.cache.Lookup(in.key)
		endLookup()
		if ok {
			return s.respond(r, in, tr, start, flightResult{entry: entry, cached: true}, false), in, nil
		}
		// Consistent-hash routing: when a cluster is attached and another
		// peer owns this content address, answer from the owner — its cache
		// holds (or will hold) the one copy of this plan. Requests already
		// forwarded once are always planned here (single-hop loop
		// prevention), and no_cache runs are private by definition. A peer
		// failure inside ForwardPlan reports ok=false and the request
		// degrades to the local flight below — never to a client-visible
		// error.
		if s.cluster != nil && r.Header.Get(ForwardedHeader) == "" {
			endForward := tr.Phase("forward")
			cresp, ok := s.cluster.ForwardPlan(r.Context(), in.key, pr)
			endForward()
			if ok {
				// The relayed response keeps the owner's trace when one was
				// requested: the planner phases happened there, not here.
				return cresp, in, nil
			}
		}
	}

	timeout := s.cfg.PlanTimeout
	if pr.TimeoutMillis > 0 {
		timeout = min(timeout, time.Duration(pr.TimeoutMillis)*time.Millisecond)
	}
	reqCtx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var fr flightResult
	coalesced := false
	if pr.NoCache {
		// An explicit fresh run is never shared and never shares: the
		// caller asked for its own planner execution.
		fr = s.runPlan(reqCtx, in, tr, true)
	} else {
		// The shared run is bounded by the server-wide cap, not the leader's
		// possibly shortened timeout_ms: one impatient leader must not doom
		// joiners with bigger budgets to a 504. Each waiter's own reqCtx
		// still enforces its personal deadline on the wait.
		run := func(ctx context.Context) flightResult { return s.runPlan(ctx, in, tr, false) }
		fl, leader := s.flights.join(in.key, s.cfg.PlanTimeout, run)
		endWait := tr.Phase("flight_wait")
		fr = s.flights.wait(reqCtx, fl)
		endWait()
		// A leader whose flight resolved from a freshly landed cache entry
		// is a cache hit; joiners report the coalesced share either way.
		fr.cached, coalesced = leader && fr.cached, !leader
	}
	if fr.err != nil {
		return nil, nil, fr.err
	}
	return s.respond(r, in, tr, start, fr, coalesced), in, nil
}

// runPlan is the body of a flight: one planning run on the pool — admit,
// materialise the platform, plan, all under one slot, so admission control
// covers the generation of a fleet as it covers planning it — then render
// the plan and refresh the cache. ctx is either the request's own context
// (no_cache: a private run) or a flight context detached from any single
// client (the shared, coalesced run), which is why the leader's trace
// recorder arrives as an argument and not down the context chain. Joiners
// that requested a trace of their own still get only their service-side
// phases — the planner phases belong to the flight leader's recorder.
func (s *Server) runPlan(ctx context.Context, in *planInput, tr *obs.TraceRecorder, noCache bool) flightResult {
	ctx = obs.ContextWithTrace(ctx, tr)
	if !noCache {
		// A previous flight may have landed between our cache miss and this
		// run starting; don't replan what is already cached — and record it
		// for what it is, a hit.
		if entry, ok := s.cache.Lookup(in.key); ok {
			return flightResult{entry: entry, cached: true}
		}
		s.cache.NoteMiss(in.key)
	}
	var req core.Request
	var variants []portfolio.Result
	endPlan := tr.Phase("plan")
	plan, err := s.pool.Submit(ctx, func(ctx context.Context) (*core.Plan, error) {
		var err error
		if req, err = in.request(ctx); err != nil {
			// The request's fault, unless the context cut generation
			// short — planStatus looks for that first.
			return nil, requestError{err}
		}
		// Generating and validating a fleet can outlast the deadline;
		// don't start planning for nobody.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if pf, ok := in.planner.(*portfolio.Planner); ok {
			// Keep the per-variant stats for the response.
			var p *core.Plan
			p, variants, err = pf.PlanWithStats(ctx, req)
			return p, err
		}
		return in.planner.PlanContext(ctx, req)
	})
	endPlan()
	if err != nil {
		return flightResult{err: err}
	}
	endRender := tr.Phase("render")
	entry, err := Render(plan, req)
	endRender()
	if err != nil {
		return flightResult{err: err}
	}
	if plan.ClassPlanned {
		s.classPlans.Add(1)
	}
	s.cache.Put(in.key, entry)
	return flightResult{entry: entry, variants: variants}
}

// respond is the one success exit of plan: the rendered entry becomes the
// wire response, the clock stops, and the trace — when one was asked for —
// is snapshotted into the response and a debug log record. Reading tr here
// is safe on the coalesced path: the flight's done channel closed before
// wait returned, ordering the planner goroutine's trace writes before this
// read.
func (s *Server) respond(r *http.Request, in *planInput, tr *obs.TraceRecorder, start time.Time, fr flightResult, coalesced bool) *PlanResponse {
	entry, plan := fr.entry, fr.entry.Plan
	resp := &PlanResponse{
		Planner:          plan.Planner,
		Key:              string(in.key),
		Cached:           fr.cached,
		Coalesced:        coalesced,
		Rho:              plan.Eval.Rho,
		Sched:            plan.Eval.Sched,
		Service:          plan.Eval.Service,
		Bottleneck:       plan.Eval.Bottleneck.String(),
		Capped:           plan.Capped,
		NodesUsed:        plan.NodesUsed,
		PoolNodes:        entry.PoolNodes,
		SpecClasses:      plan.PoolClasses,
		ClassPlanned:     plan.ClassPlanned,
		Agents:           entry.Stats.Agents,
		Servers:          entry.Stats.Servers,
		Depth:            entry.Stats.Depth,
		MinLinkBandwidth: entry.MinLinkBandwidth,
		MaxLinkBandwidth: entry.MaxLinkBandwidth,
		XML:              entry.XML,
		//adeptvet:allow nondet plan-latency field of the response; reporting only, the plan itself is deterministic
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		Variants:  fr.variants,
	}
	if tr == nil {
		return resp
	}
	ctx := r.Context()
	resp.Trace = tr.Trace()
	resp.Trace.RequestID = obs.RequestIDFrom(ctx)
	if s.logger.Enabled(ctx, slog.LevelDebug) {
		s.logger.LogAttrs(ctx, slog.LevelDebug, "plan trace",
			slog.String("request_id", resp.Trace.RequestID),
			slog.String("planner", resp.Planner),
			slog.Any("trace", resp.Trace))
	}
	return resp
}

// retryAfterSeconds is the backoff hint attached to 429 responses. The
// queue drains at planner speed, so one second is enough for a retried
// request to find either a free slot or a freshly cached result.
const retryAfterSeconds = 1

// writePlanError answers a planning failure with the status planStatus
// grades it, attaching the Retry-After backoff hint when the pool shed the
// request.
func writePlanError(w http.ResponseWriter, r *http.Request, err error) {
	status := planStatus(r, err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
	}
	writeError(w, status, "%v", err)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var pr PlanRequest
	if !decodeBody(w, r, &pr) {
		return
	}
	resp, _, err := s.plan(r, &pr)
	if err != nil {
		writePlanError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// BatchRequest fans one call out over many plan requests — e.g. the same
// platform across every planner, or one planner across many platforms.
type BatchRequest struct {
	Requests []PlanRequest `json:"requests"`
}

// BatchItem is one element of a batch response: either a plan or an error.
type BatchItem struct {
	Plan  *PlanResponse `json:"plan,omitempty"`
	Error string        `json:"error,omitempty"`
}

// BatchResponse answers POST /v1/plan/batch; Items is index-aligned with
// the request slice, and the counts summarise it so clients (and
// monitoring) need not scan every item to notice failures. A batch whose
// items all failed answers 422 instead of a hollow 200.
type BatchResponse struct {
	Items     []BatchItem `json:"items"`
	Succeeded int         `json:"succeeded"`
	Failed    int         `json:"failed"`
}

// maxBatch bounds one batch call; larger fan-outs should shard client-side.
const maxBatch = 256

func (s *Server) handlePlanBatch(w http.ResponseWriter, r *http.Request) {
	var br BatchRequest
	if !decodeBody(w, r, &br) {
		return
	}
	if len(br.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(br.Requests) > maxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(br.Requests), maxBatch)
		return
	}
	items := make([]BatchItem, len(br.Requests))
	// The pool's admission control is fail-fast, so a batch must not dump
	// every item into Submit at once — a 256-item batch would shed
	// everything past workers+queue on an otherwise idle daemon. The
	// semaphore trickles items in at worker parallelism; items past it
	// wait here (in the handler, bounded by the batch size), while
	// genuinely concurrent external load still sees 429s per item.
	sem := make(chan struct{}, s.pool.Workers())
	// shed counts the items the pool refused or the shutdown cut off.
	var shed atomic.Int64
	var wg sync.WaitGroup
	for i := range br.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-r.Context().Done():
				items[i] = BatchItem{Error: r.Context().Err().Error()}
				return
			}
			resp, _, err := s.plan(r, &br.Requests[i])
			if err != nil {
				if st := planStatus(r, err); st == http.StatusTooManyRequests || st == http.StatusServiceUnavailable {
					shed.Add(1)
				}
				items[i] = BatchItem{Error: err.Error()}
				return
			}
			items[i] = BatchItem{Plan: resp}
		}(i)
	}
	wg.Wait()
	out := BatchResponse{Items: items}
	for _, item := range items {
		if item.Error != "" {
			out.Failed++
		} else {
			out.Succeeded++
		}
	}
	status := http.StatusOK
	if out.Failed == len(items) {
		// All failed. When every failure was load shedding the batch is
		// retryable overload, not an unprocessable request — answer 429
		// with the same backoff hint as the single-plan path.
		if int(shed.Load()) == len(items) {
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
		} else {
			status = http.StatusUnprocessableEntity
		}
	}
	writeJSON(w, status, out)
}
