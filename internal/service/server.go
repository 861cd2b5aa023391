package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	gort "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/deploy"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/platform"
	"adept/internal/portfolio"
	"adept/internal/runtime"
	"adept/internal/scenario"
	"adept/internal/slo"
	"adept/internal/workload"
)

// planners is the one table of planner names: SelectPlanner resolves
// through it and PlannerNames lists it, in this order. The names match
// cmd/adept's -planner flag.
var planners = []struct {
	name string
	make func() core.Planner
}{
	{"heuristic", func() core.Planner { return core.NewHeuristic() }},
	{"heuristic+swap", func() core.Planner { return &core.SwapRefiner{Inner: core.NewHeuristic()} }},
	{"star", func() core.Planner { return &baseline.Star{} }},
	{"balanced", func() core.Planner { return &baseline.Balanced{} }},
	{"dary", func() core.Planner { return &baseline.OptimalDAry{} }},
	{"exhaustive", func() core.Planner { return &baseline.Exhaustive{} }},
	{"portfolio", func() core.Planner { return portfolio.New() }},
}

// SelectPlanner resolves a planner name to a (stateless, reusable)
// planner instance; the empty name selects the heuristic.
func SelectPlanner(name string) (core.Planner, error) {
	if name == "" {
		name = "heuristic"
	}
	for _, p := range planners {
		if p.name == name {
			return p.make(), nil
		}
	}
	return nil, fmt.Errorf("unknown planner %q", name)
}

// PlannerNames lists the names SelectPlanner accepts, for error messages
// and documentation endpoints.
func PlannerNames() []string {
	names := make([]string, len(planners))
	for i, p := range planners {
		names[i] = p.name
	}
	return names
}

// Config tunes the daemon. Every field is optional; the server builds its
// own registry, cache and pool from it.
type Config struct {
	// CacheSize is the plan cache capacity in entries (default 256).
	CacheSize int
	// Workers is the number of pool slots: the bound on concurrent planner
	// runs (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the requests waiting for a pool slot; past it the
	// daemon sheds with 429 (default 64, which zero also selects).
	QueueDepth int
	// PlanTimeout caps a single planning run (default 30s); clients may
	// only shorten it via timeout_ms.
	PlanTimeout time.Duration
	// Logger receives the daemon's structured logs. nil means discard —
	// embedded uses (tests, benchmarks) pay nothing for logging.
	Logger *slog.Logger
	// JournalCapacity bounds the autonomic event journal ring
	// (default 256).
	JournalCapacity int
	// SLO is the declarative objective and burn-rate alert rule set the
	// embedded SLO engine evaluates (nil means slo.DefaultConfig: 99.5%
	// availability plus a 2s p99 plan-latency objective).
	SLO *slo.Config
	// SampleInterval is the time-series sampling (and SLO evaluation)
	// tick. Zero means one second; negative disables the background
	// sampler entirely — tests then drive SLOTick with explicit
	// timestamps instead of racing a wall clock.
	SampleInterval time.Duration
}

// Fixed limits of the daemon, constants rather than Config fields because
// no caller has ever needed another value.
const (
	// maxDeployDuration caps the load window of POST /v1/deploy.
	maxDeployDuration = 10 * time.Second
	// seriesCapacity bounds each time-series ring: ten minutes of history
	// at the default one-second tick.
	seriesCapacity = 600
	// maxRequestBody bounds a request body; larger ones are answered 413.
	// 16 MiB is far above any platform a client would ship inline (fleet
	// scale goes through a scenario spec).
	maxRequestBody = 16 << 20
	// maxScenarioNodes bounds the pool a scenario spec may ask the daemon
	// to generate; a larger n is answered 400 before anything is allocated
	// for it. A spec is a few dozen bytes whatever its n, so without the cap
	// one request could ask for all the memory there is. Two million leaves
	// the million-node fleet the daemon is sized for a factor of headroom.
	maxScenarioNodes = 2 << 20
)

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.Workers <= 0 {
		c.Workers = gort.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PlanTimeout <= 0 {
		c.PlanTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.JournalCapacity <= 0 {
		c.JournalCapacity = 256
	}
	return c
}

// Server is the planning daemon: registry + cache + pool behind an HTTP
// JSON API. Create with New, expose via Handler, release with Close.
type Server struct {
	cfg      Config
	registry *Registry
	cache    *PlanCache
	pool     *Pool
	flights  *flightGroup
	metrics  *Metrics
	logger   *slog.Logger
	journal  *obs.Journal
	mux      *http.ServeMux

	// Observability plane: the time-series store samples counters,
	// gauges and histogram quantiles on a fixed tick; the SLO engine
	// evaluates burn rates over those series on the same tick.
	store        *obs.Store
	sloEng       *slo.Engine
	ready        atomic.Bool
	sampleCancel context.CancelFunc
	sampleDone   chan struct{}

	autoMu       sync.Mutex
	auto         *autonomicSession
	autoStarting bool

	// cluster is the optional peer layer (EnableCluster); nil means
	// single-node mode and every peer code path short-circuits.
	cluster Cluster

	// classPlans counts fresh planning runs answered by the heuristic's
	// class-collapsed path (cache hits do not re-count).
	classPlans atomic.Uint64
}

// New builds a Server: an empty registry, an empty cache, an open pool
// and (unless disabled) a running sampler.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := NewPlanCache(cfg.CacheSize)
	if err != nil {
		return nil, err
	}
	pool, err := NewPool(cfg.Workers, cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		cache:    cache,
		pool:     pool,
		flights:  newFlightGroup(),
		metrics:  NewMetrics(),
		logger:   cfg.Logger,
		journal:  obs.NewJournal(cfg.JournalCapacity),
		mux:      http.NewServeMux(),
	}
	s.registerGauges()
	if err := s.initSLO(); err != nil {
		pool.Close()
		return nil, err
	}
	s.routes()
	s.ready.Store(true)
	s.startSampler()
	return s, nil
}

// initSLO builds the time-series store, wires the daemon's key signals
// into it, and binds every configured objective to its counter sources.
func (s *Server) initSLO() error {
	s.store = obs.NewStore(seriesCapacity)
	sloCfg := slo.DefaultConfig()
	if s.cfg.SLO != nil {
		sloCfg = *s.cfg.SLO
	}
	eng, err := slo.NewEngine(sloCfg, s.store, s.journal)
	if err != nil {
		return err
	}
	for _, spec := range sloCfg.Objectives {
		if err := s.bindObjective(eng, spec); err != nil {
			return err
		}
	}
	// Operational series beyond the SLO sources: instantaneous load and
	// latency signals the soak harness and dashboards read back over time.
	s.store.Watch("requests_total", func() float64 { r, _ := s.metrics.Totals(); return float64(r) })
	s.store.Watch("errors_total", func() float64 { _, e := s.metrics.Totals(); return float64(e) })
	s.store.Watch("queue_depth", func() float64 { return float64(s.pool.QueueDepth()) })
	s.store.Watch("active_plans", func() float64 { return float64(s.pool.Active()) })
	s.store.Watch("cache_entries", func() float64 { return float64(s.cache.Len()) })
	planLat := s.metrics.EndpointLatency("plan")
	s.store.Watch("plan_latency_p50_ms", func() float64 { return planLat.Quantile(0.50) * 1e3 })
	s.store.Watch("plan_latency_p99_ms", func() float64 { return planLat.Quantile(0.99) * 1e3 })
	s.sloEng = eng
	return nil
}

// bindObjective attaches one objective spec to the daemon's metrics:
// availability reduces to the (requests, errors) counter pair — the
// whole daemon's, or one endpoint's when the spec scopes it — and a
// latency objective to the endpoint histogram's cumulative count at or
// under the (bucket-snapped) threshold.
func (s *Server) bindObjective(eng *slo.Engine, spec slo.ObjectiveSpec) error {
	switch spec.Type {
	case slo.TypeAvailability:
		totals := s.metrics.Totals
		if ep := spec.Endpoint; ep != "" {
			totals = func() (uint64, uint64) { return s.metrics.EndpointTotals(ep) }
		}
		return eng.Bind(spec.Name,
			func() float64 { r, e := totals(); return float64(r) - float64(e) },
			func() float64 { r, _ := totals(); return float64(r) },
			0)
	case slo.TypeLatency:
		ep := spec.Endpoint
		if ep == "" {
			ep = "plan"
		}
		h := s.metrics.EndpointLatency(ep)
		thresh := spec.ThresholdMillis / 1e3
		_, bound := h.CountAtOrBelow(thresh)
		return eng.Bind(spec.Name,
			func() float64 { c, _ := h.CountAtOrBelow(thresh); return float64(c) },
			func() float64 { return float64(h.Count()) },
			bound*1e3)
	}
	return fmt.Errorf("slo: objective %q: unbindable type %q", spec.Name, spec.Type)
}

// startSampler runs the store's wall-clock sampling loop with SLO
// evaluation chained on every tick. Disabled by a negative interval.
func (s *Server) startSampler() {
	interval := s.cfg.SampleInterval
	if interval < 0 {
		return
	}
	if interval == 0 {
		interval = time.Second
	}
	//adeptvet:allow ctxflow daemon-lifetime lifecycle root for the metrics sampler; cancelled in Close
	ctx, cancel := context.WithCancel(context.Background())
	s.sampleCancel = cancel
	s.sampleDone = make(chan struct{})
	go func() {
		defer close(s.sampleDone)
		s.store.Run(ctx, interval, s.sloEng.Evaluate)
	}()
}

// SLOTick samples the time-series store and advances the SLO engine at
// an explicit timestamp — one background sampler tick under the
// caller's clock, for deterministic tests and embedded drivers.
func (s *Server) SLOTick(now time.Time) {
	s.store.Sample(now)
	s.sloEng.Evaluate(now)
}

// SetReady flips the readiness gate served by GET /readyz. adeptd holds
// it false while startup preloading runs.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// SLO exposes the daemon's SLO engine.
func (s *Server) SLO() *slo.Engine { return s.sloEng }

// registerGauges bridges the components that keep their own counters
// (cache, pool, flights, registry, journal) into the Prometheus
// registry. Values are read lazily at scrape time; nothing here touches
// the request hot path.
func (s *Server) registerGauges() {
	prom := s.metrics.Prom()
	prom.CounterFunc("adeptd_cache_hits_total", "Plan cache hits.", func() uint64 {
		h, _ := s.cache.Stats()
		return h
	})
	prom.CounterFunc("adeptd_cache_misses_total", "Plan cache misses.", func() uint64 {
		_, m := s.cache.Stats()
		return m
	})
	prom.GaugeFunc("adeptd_cache_entries", "Plans currently cached.", func() float64 {
		return float64(s.cache.Len())
	})
	prom.GaugeFunc("adeptd_cache_shards", "Plan cache shard count.", func() float64 {
		return float64(s.cache.Shards())
	})
	shardEntries := prom.GaugeVec("adeptd_cache_shard_entries", "Plans cached per shard.", "shard")
	prom.OnScrape(func() {
		for i, n := range s.cache.ShardSizes() {
			shardEntries.With(strconv.Itoa(i)).Set(float64(n))
		}
	})
	prom.GaugeFunc("adeptd_workers", "Planning worker count.", func() float64 {
		return float64(s.pool.Workers())
	})
	prom.GaugeFunc("adeptd_active_plans", "Planning jobs executing right now.", func() float64 {
		return float64(s.pool.Active())
	})
	prom.GaugeFunc("adeptd_queue_depth", "Planning jobs waiting for a worker.", func() float64 {
		return float64(s.pool.QueueDepth())
	})
	prom.GaugeFunc("adeptd_queue_capacity", "Configured planning queue bound.", func() float64 {
		return float64(s.pool.QueueCapacity())
	})
	prom.CounterFunc("adeptd_plans_executed_total", "Planning jobs actually run on the pool.", s.pool.Executed)
	prom.CounterFunc("adeptd_class_planned_total", "Fresh plans produced by the class-collapsed planner path.", s.classPlans.Load)
	prom.CounterFunc("adeptd_rejected_total", "Plan submissions shed with 429 by fail-fast admission.", s.pool.Rejected)
	prom.CounterFunc("adeptd_coalesced_total", "Requests that shared another request's planning run.", s.flights.Coalesced)
	prom.GaugeFunc("adeptd_flights_active", "In-progress coalesced planning flights.", func() float64 {
		return float64(s.flights.Active())
	})
	prom.GaugeFunc("adeptd_platforms", "Platforms registered.", func() float64 {
		return float64(s.registry.Len())
	})
	prom.CounterFunc("adeptd_autonomic_events_total", "Autonomic decision events journalled.", s.journal.Total)
	prom.RegisterRuntime()
}

// Journal exposes the autonomic event journal.
func (s *Server) Journal() *obs.Journal { return s.journal }

// Registry exposes the platform store (e.g. for startup preloading and
// journalling, or cluster replication).
func (s *Server) Registry() *Registry { return s.registry }

// Cache exposes the plan cache.
func (s *Server) Cache() *PlanCache { return s.cache }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the sampler, the worker pool and any running autonomic
// session.
func (s *Server) Close() {
	if s.sampleCancel != nil {
		s.sampleCancel()
		<-s.sampleDone
	}
	s.stopAutonomic()
	s.pool.Close()
}

func (s *Server) routes() {
	s.mux.Handle("POST /v1/plan", s.instrument("plan", s.handlePlan))
	s.mux.Handle("POST /v1/plan/batch", s.instrument("plan_batch", s.handlePlanBatch))
	s.mux.Handle("GET /v1/platforms", s.instrument("platforms_list", s.handlePlatformList))
	s.mux.Handle("GET /v1/platforms/{name}", s.instrument("platforms_get", s.handlePlatformGet))
	s.mux.Handle("PUT /v1/platforms/{name}", s.instrument("platforms_put", s.handlePlatformPut))
	s.mux.Handle("DELETE /v1/platforms/{name}", s.instrument("platforms_delete", s.handlePlatformDelete))
	s.mux.Handle("GET /v1/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.Handle("GET /metrics", s.instrument("metrics_prom", s.handlePromMetrics))
	s.mux.Handle("POST /v1/deploy", s.instrument("deploy", s.handleDeploy))
	s.mux.Handle("POST /v1/autonomic/start", s.instrument("autonomic_start", s.handleAutonomicStart))
	s.mux.Handle("POST /v1/autonomic/stop", s.instrument("autonomic_stop", s.handleAutonomicStop))
	s.mux.Handle("GET /v1/autonomic/status", s.instrument("autonomic_status", s.handleAutonomicStatus))
	s.mux.Handle("GET /v1/autonomic/events", s.instrument("autonomic_events", s.handleAutonomicEvents))
	s.mux.Handle("GET /v1/autonomic/incidents", s.instrument("autonomic_incidents", s.handleAutonomicIncidents))
	s.mux.Handle("POST /v1/autonomic/inject", s.instrument("autonomic_inject", s.handleAutonomicInject))
	s.mux.Handle("GET /v1/slo", s.instrument("slo", s.handleSLO))
	s.mux.Handle("GET /v1/alerts", s.instrument("alerts", s.handleAlerts))
	// Probes stay uninstrumented: a kubelet polling /healthz every few
	// seconds must not count toward the availability SLO or clutter the
	// per-endpoint latency families.
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

// SLOResponse is the JSON body of GET /v1/slo.
type SLOResponse struct {
	Objectives []slo.ObjectiveStatus `json:"objectives"`
}

// AlertsResponse is the JSON body of GET /v1/alerts.
type AlertsResponse struct {
	Alerts []slo.AlertStatus `json:"alerts"`
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SLOResponse{Objectives: s.sloEng.Objectives()})
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, AlertsResponse{Alerts: s.sloEng.Alerts()})
}

// handleHealthz answers liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyzResponse is the JSON body of GET /readyz; each field is one
// readiness condition so a failing probe says which gate is shut.
type ReadyzResponse struct {
	Ready     bool `json:"ready"`
	PoolOpen  bool `json:"pool_open"`
	Preloaded bool `json:"preloaded"`
	Platforms int  `json:"platforms"`
}

// handleReadyz answers readiness: startup preloading has finished and
// the worker pool is accepting jobs. 503 until both hold.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := ReadyzResponse{
		PoolOpen:  !s.pool.Closed(),
		Preloaded: s.ready.Load(),
		Platforms: s.registry.Len(),
	}
	st.Ready = st.PoolOpen && st.Preloaded
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// statusClientClosedRequest is the nginx-convention status for "the
// client dropped the connection before we could answer". It never reaches
// the client (the connection is gone); it exists so metrics and logs can
// tell client impatience apart from genuine server faults.
const statusClientClosedRequest = 499

func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Correlation: honour a caller-supplied X-Request-ID (so a proxy or
		// test harness can stitch its own traces through) or mint one, echo
		// it in the response, and carry it in the context so every layer —
		// coalescer, pool, planner, deploy — logs under the same ID.
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		r = r.WithContext(obs.ContextWithRequestID(r.Context(), reqID))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		//adeptvet:allow nondet request latency measurement; serving-layer telemetry, not planner state
		start := time.Now()
		h(rec, r)
		//adeptvet:allow nondet request latency measurement; serving-layer telemetry, not planner state
		elapsed := time.Since(start)
		// A client cancellation is not a server error: it is recorded as a
		// request (and visible as a 499 in logs) but must not pollute the
		// error-rate the daemon is judged by.
		failed := rec.status >= 400 && rec.status != statusClientClosedRequest
		s.metrics.Observe(endpoint, elapsed, failed)
		level := slog.LevelDebug
		if failed {
			level = slog.LevelWarn
		}
		if s.logger.Enabled(r.Context(), level) {
			s.logger.LogAttrs(r.Context(), level, "request",
				slog.String("endpoint", endpoint),
				slog.String("request_id", reqID),
				slog.Int("status", rec.status),
				slog.Float64("elapsed_ms", float64(elapsed)/float64(time.Millisecond)))
		}
	})
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds is the backoff hint attached to 429 responses. The
// queue drains at planner speed, so one second is enough for a retried
// request to find either a free slot or a freshly cached result.
const retryAfterSeconds = 1

// writePlanError renders a planning failure, attaching the Retry-After
// backoff hint when the pool shed the request.
func writePlanError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
	}
	writeError(w, status, "%v", err)
}

// PlanRequest is the JSON body of POST /v1/plan (and each element of a
// batch). Exactly one of Platform (inline), PlatformName (registry
// reference) or Scenario (server-side generation) must be set. The service
// cost comes from Wapp when positive, else from DgemmN (defaulting to the
// paper's 310×310 DGEMM).
type PlanRequest struct {
	Platform     *platform.Platform `json:"platform,omitempty"`
	PlatformName string             `json:"platform_name,omitempty"`
	// Scenario generates the platform server-side from a declarative spec
	// (internal/scenario). Generation is deterministic, so the same spec
	// content-addresses the same cache entry; this is the intended way to
	// plan very large pools (say a million nodes) without shipping every
	// node over JSON.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	Planner  string         `json:"planner,omitempty"`
	Wapp     float64        `json:"wapp,omitempty"`
	DgemmN   int            `json:"dgemm_n,omitempty"`
	Demand   float64        `json:"demand,omitempty"`
	Costs    *model.Costs   `json:"costs,omitempty"`
	// Portfolio races every stock planner (internal/portfolio) and
	// answers with the best plan plus per-variant stats. Mutually
	// exclusive with Planner (it is a planner selection of its own).
	Portfolio bool `json:"portfolio,omitempty"`
	// TimeoutMillis optionally shortens the server-side planning deadline.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// NoCache forces a fresh planning run (the result still refreshes the
	// cache).
	NoCache bool `json:"no_cache,omitempty"`
	// Trace requests a PlanTrace in the response: per-phase wall times,
	// planner work counters, and (for portfolio runs) per-variant
	// timings. Tracing is off by default and adds no allocations to the
	// cached-hit path; the trace never enters the cache key, so traced
	// and untraced requests share cache entries.
	Trace bool `json:"trace,omitempty"`
}

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
	// Variants reports the portfolio race (portfolio requests only;
	// answers served from the cache omit it — the race never re-ran).
	Variants []portfolio.Result `json:"variants,omitempty"`
	// Trace is the structured timing breakdown, present only when the
	// request set "trace":true. A request coalesced onto a flight that
	// another request leads carries only its own service-side phases —
	// the planner phases belong to the leader's trace.
	Trace *obs.PlanTrace `json:"trace,omitempty"`
}

// planInput is a resolved plan request: the planner, the model inputs and
// the content address over everything that names the plan — but not
// necessarily the platform, which a scenario request only builds on a
// cache miss (request).
type planInput struct {
	planner core.Planner
	key     CacheKey
	// req holds the model inputs. Its Platform is the inline platform, the
	// registry's resident (read-only) copy, or nil for a scenario.
	req      core.Request
	scenario *scenario.Spec
	// unchecked marks req.Platform as an inline platform nothing has
	// validated yet.
	unchecked bool
}

// request returns the core.Request the planners see, materialising what
// resolve left out: a scenario is generated (and validated, by Generate),
// an inline platform validated; a registered one was validated when it was
// written. Only a cache miss — and the two handlers that launch what was
// planned — ever need it.
func (in *planInput) request(ctx context.Context) (core.Request, error) {
	req := in.req
	switch {
	case in.scenario != nil:
		defer obs.TraceFrom(ctx).Phase("generate")()
		p, err := in.scenario.GenerateContext(ctx)
		if err != nil {
			return req, fmt.Errorf("generate scenario: %w", err)
		}
		req.Platform = p
	case in.unchecked:
		if err := req.Platform.Validate(); err != nil {
			return req, err
		}
	}
	return req, nil
}

// requestError marks a planning failure as a fault of the request that
// only the miss path could find (an inline platform with a duplicate node
// name, a scenario that generates a non-positive power): 400, as when
// resolve finds one.
type requestError struct{ error }

func (e requestError) Unwrap() error { return e.error }

// resolve turns the wire request into a planInput. Beyond digesting an
// inline platform it does O(1) work: it checks everything that can be
// checked without the nodes (the source, the planner, the costs, the pool
// size, a scenario's ranges) and addresses the request by what names its
// platform (planKey). Whether the nodes themselves are valid is left to
// the miss path — a hit proves an identical input already passed.
func (s *Server) resolve(pr *PlanRequest) (*planInput, error) {
	sources := 0
	for _, set := range []bool{pr.Platform != nil, pr.PlatformName != "", pr.Scenario != nil} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return nil, errors.New("set exactly one of platform, platform_name or scenario")
	}

	in := &planInput{}
	var err error
	if pr.Portfolio {
		if pr.Planner != "" && pr.Planner != "portfolio" {
			return nil, fmt.Errorf("portfolio=true conflicts with planner %q", pr.Planner)
		}
		in.planner = portfolio.New()
	} else if in.planner, err = SelectPlanner(pr.Planner); err != nil {
		return nil, fmt.Errorf("%v (have %v)", err, PlannerNames())
	}

	if pr.Costs != nil {
		in.req.Costs = *pr.Costs
	} else {
		in.req.Costs = model.DIETDefaults()
	}
	switch {
	case pr.Wapp > 0:
		in.req.Wapp = pr.Wapp
	case pr.DgemmN > 0:
		in.req.Wapp = workload.DGEMM{N: pr.DgemmN}.MFlop()
	default:
		in.req.Wapp = workload.DGEMM{N: 310}.MFlop()
	}
	in.req.Demand = workload.Demand(pr.Demand)

	// source is the digest of whatever names the platform.
	var source [sha256.Size]byte
	var poolNodes int
	switch {
	case pr.Platform != nil:
		in.req.Platform, in.unchecked = pr.Platform, true
		source, poolNodes = pr.Platform.Digest(), len(pr.Platform.Nodes)
	case pr.PlatformName != "":
		var ok bool
		if in.req.Platform, source, ok = s.registry.Resident(pr.PlatformName); !ok {
			return nil, fmt.Errorf("platform %q not registered", pr.PlatformName)
		}
		poolNodes = len(in.req.Platform.Nodes)
	case pr.Scenario != nil:
		if pr.Scenario.N > maxScenarioNodes {
			return nil, fmt.Errorf("generate scenario: n %d exceeds the limit of %d nodes", pr.Scenario.N, maxScenarioNodes)
		}
		if err := pr.Scenario.Validate(); err != nil {
			return nil, fmt.Errorf("generate scenario: %v", err)
		}
		in.scenario = pr.Scenario
		source, poolNodes = pr.Scenario.Digest(), pr.Scenario.N
	default:
		return nil, errors.New("missing platform, platform_name or scenario")
	}
	if err := in.req.ValidateModel(poolNodes); err != nil {
		return nil, err
	}
	in.key = planKey(in.planner.Name(), source, in.req.Costs, in.req.Wapp, in.req.Demand)
	return in, nil
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

// planResponse renders a rendered cache entry into the wire response.
func planResponse(entry *CachedPlan, key CacheKey, start time.Time, cached, coalesced bool, variants []portfolio.Result) *PlanResponse {
	plan := entry.Plan
	return &PlanResponse{
		Planner:          plan.Planner,
		Key:              string(key),
		Cached:           cached,
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
		Variants:  variants,
	}
}

// plan answers one plan request: address it, look the cache up, and only
// on a miss build what the planner needs — one coalesced run, shared by
// every concurrent request with the same content address, that
// materialises the platform, plans and renders under one pool slot. A hit
// touches no node: it costs the same whatever the size of the pool. The
// resolved planInput is returned alongside the response so callers that
// need the model inputs or the platform itself (the deploy and autonomic
// handlers) do not resolve — and re-hit the registry — a second time.
func (s *Server) plan(r *http.Request, pr *PlanRequest) (*PlanResponse, *planInput, int, error) {
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
		return nil, nil, http.StatusBadRequest, err
	}
	key := in.key

	// respond is the one success exit: render the entry into the wire
	// response and attach the trace.
	respond := func(entry *CachedPlan, cached, coalesced bool, variants []portfolio.Result) (*PlanResponse, *planInput, int, error) {
		resp := planResponse(entry, key, start, cached, coalesced, variants)
		s.finishTrace(r.Context(), tr, resp)
		return resp, in, http.StatusOK, nil
	}

	if !pr.NoCache {
		// lookup, not Get: the miss is charged in runPlanner, so requests
		// that coalesce onto an existing flight count no miss of their own.
		endLookup := tr.Phase("cache_lookup")
		entry, ok := s.cache.Lookup(key)
		endLookup()
		if ok {
			return respond(entry, true, false, nil)
		}
	}

	// Consistent-hash routing: when a cluster is attached and another peer
	// owns this content address, answer from the owner — its cache holds
	// (or will hold) the one copy of this plan. Requests already forwarded
	// once are always planned here (single-hop loop prevention), and
	// no_cache runs are private by definition. A peer failure inside
	// ForwardPlan reports ok=false and the request degrades to the local
	// planning path below — never to a client-visible error.
	if s.cluster != nil && !pr.NoCache && r.Header.Get(ForwardedHeader) == "" {
		endForward := tr.Phase("forward")
		cresp, ok := s.cluster.ForwardPlan(r.Context(), key, pr)
		endForward()
		if ok {
			// The relayed response keeps the owner's trace when one was
			// requested: the planner phases happened there, not here.
			return cresp, in, http.StatusOK, nil
		}
	}

	timeout := s.cfg.PlanTimeout
	if pr.TimeoutMillis > 0 {
		if t := time.Duration(pr.TimeoutMillis) * time.Millisecond; t < timeout {
			timeout = t
		}
	}

	// runPlanner executes one planning run on the pool — materialise the
	// platform, plan, under one slot, so admission control covers the
	// generation of a fleet as it covers planning it — then renders the
	// plan and refreshes the cache. It is handed either our own request
	// context (no_cache: a private run) or a flight context detached from
	// any single client (the shared, coalesced run).
	runPlanner := func(ctx context.Context) flightResult {
		// The closure captures tr directly: on the coalesced path ctx is a
		// flight context detached from any request, so the trace must ride
		// the capture, not the context chain. Joiners that requested a
		// trace of their own still get only their service-side phases —
		// the planner phases belong to the flight leader's recorder.
		ctx = obs.ContextWithTrace(ctx, tr)
		if !pr.NoCache {
			// A previous flight may have landed between our cache miss and
			// this run starting; don't replan what is already cached — and
			// record it for what it is, a hit.
			if entry, ok := s.cache.Lookup(key); ok {
				return flightResult{entry: entry, cached: true}
			}
			s.cache.NoteMiss(key)
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
				// Keep the race's per-variant stats for the response.
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
		entry, err := Render(plan, req.Platform)
		endRender()
		if err != nil {
			return flightResult{err: err}
		}
		if plan.ClassPlanned {
			s.classPlans.Add(1)
		}
		s.cache.Put(key, entry)
		return flightResult{entry: entry, variants: variants}
	}

	reqCtx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if pr.NoCache {
		// An explicit fresh run is never shared and never shares: the
		// caller asked for its own planner execution.
		fr := runPlanner(reqCtx)
		if fr.err != nil {
			return nil, nil, planStatus(r, fr.err), fr.err
		}
		return respond(fr.entry, false, false, fr.variants)
	}

	// The shared run is bounded by the server-wide cap, not the leader's
	// possibly shortened timeout_ms: one impatient leader must not doom
	// joiners with bigger budgets to a 504. Each waiter's own reqCtx
	// (above) still enforces its personal deadline on the wait.
	fl, leader := s.flights.join(key, s.cfg.PlanTimeout, runPlanner)
	endWait := tr.Phase("flight_wait")
	fr := s.flights.wait(reqCtx, fl)
	endWait()
	if fr.err != nil {
		return nil, nil, planStatus(r, fr.err), fr.err
	}
	// A leader whose flight resolved from a freshly landed cache entry is
	// a cache hit; joiners report the coalesced share either way.
	return respond(fr.entry, leader && fr.cached, !leader, fr.variants)
}

// finishTrace snapshots the recorder into the response and attaches the
// trace to a debug log record. No-op when tracing is off (tr nil).
// Reading tr here is safe on the coalesced path: the flight's done
// channel closed before wait returned, ordering the planner goroutine's
// trace writes before this read.
func (s *Server) finishTrace(ctx context.Context, tr *obs.TraceRecorder, resp *PlanResponse) {
	if tr == nil {
		return
	}
	t := tr.Trace()
	t.RequestID = obs.RequestIDFrom(ctx)
	resp.Trace = t
	if s.logger.Enabled(ctx, slog.LevelDebug) {
		s.logger.LogAttrs(ctx, slog.LevelDebug, "plan trace",
			slog.String("request_id", t.RequestID),
			slog.String("planner", resp.Planner),
			slog.Any("trace", t))
	}
}

// bodyErrorStatus maps a failure to read a request body to its status:
// 413 when http.MaxBytesReader cut it off, else 400.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeBody decodes the request's JSON body into v. On failure it has
// answered the client (413 for a body over maxRequestBody, else 400) and
// reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, bodyErrorStatus(err), "decode request: %v", err)
		return false
	}
	return true
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var pr PlanRequest
	if !decodeBody(w, r, &pr) {
		return
	}
	resp, _, status, err := s.plan(r, &pr)
	if err != nil {
		writePlanError(w, status, err)
		return
	}
	writeJSON(w, status, resp)
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
	statuses := make([]int, len(br.Requests))
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
			resp, _, status, err := s.plan(r, &br.Requests[i])
			statuses[i] = status
			if err != nil {
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
		shed := 0
		for _, st := range statuses {
			if st == http.StatusTooManyRequests || st == http.StatusServiceUnavailable {
				shed++
			}
		}
		if shed == len(items) {
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
		} else {
			status = http.StatusUnprocessableEntity
		}
	}
	writeJSON(w, status, out)
}

func (s *Server) handlePlatformList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"platforms": s.registry.Names()})
}

func (s *Server) handlePlatformGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	p, version, ok := s.registry.GetVersion(name)
	if !ok {
		writeError(w, http.StatusNotFound, "platform %q not registered", name)
		return
	}
	w.Header().Set("ETag", etagFor(version))
	writeJSON(w, http.StatusOK, p)
}

// etagFor renders a registry version as the strong ETag carried by
// platform responses and compared by If-Match.
func etagFor(version uint64) string {
	return `"` + strconv.FormatUint(version, 10) + `"`
}

// parseIfMatch decodes an If-Match header into PutIfMatch's expectation:
// nil for an absent header (unconditional write), MatchAny for "*", else
// the numeric version with optional quotes. A malformed value is a client
// error, not an unconditional write — silently ignoring it would re-open
// the lost-update hole the header exists to close.
func parseIfMatch(header string) (*uint64, error) {
	header = strings.TrimSpace(header)
	if header == "" {
		return nil, nil
	}
	if header == "*" {
		v := MatchAny
		return &v, nil
	}
	unquoted := strings.TrimPrefix(strings.TrimSuffix(header, `"`), `"`)
	v, err := strconv.ParseUint(unquoted, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("malformed If-Match %q: want a version number, a quoted version, or *", header)
	}
	if v == MatchAny {
		return nil, fmt.Errorf("malformed If-Match %q: version out of range", header)
	}
	return &v, nil
}

// writeRegistryError renders a refused registry write: 412 when the
// writer's read is stale — rejected visibly instead of silently dropping
// the concurrent writer's update — else 400.
func writeRegistryError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrVersionMismatch) {
		status = http.StatusPreconditionFailed
	}
	writeError(w, status, "%v", err)
}

func (s *Server) handlePlatformPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	expect, err := parseIfMatch(r.Header.Get("If-Match"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, bodyErrorStatus(err), "read body: %v", err)
		return
	}
	p, err := platform.ParseJSON(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	version, err := s.registry.PutIfMatch(name, p, expect)
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	s.broadcast(RegistryUpdate{Name: name, Version: version, Platform: p})
	w.Header().Set("ETag", etagFor(version))
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "nodes": len(p.Nodes), "version": version})
}

func (s *Server) handlePlatformDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	expect, err := parseIfMatch(r.Header.Get("If-Match"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tombstone, existed, err := s.registry.DeleteIfMatch(name, expect)
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	if !existed {
		writeError(w, http.StatusNotFound, "platform %q not registered", name)
		return
	}
	s.broadcast(RegistryUpdate{Name: name, Version: tombstone, Deleted: true})
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "version": tombstone})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := s.metrics.Snapshot()
	rep.CacheHits, rep.CacheMisses = s.cache.Stats()
	rep.CacheSize = s.cache.Len()
	rep.CacheShards = s.cache.Shards()
	rep.Platforms = s.registry.Len()
	rep.ActivePlans = s.pool.Active()
	rep.Workers = s.pool.Workers()
	rep.QueueDepth = s.pool.QueueDepth()
	rep.QueueCapacity = s.pool.QueueCapacity()
	rep.PlansExecuted = s.pool.Executed()
	rep.Rejected = s.pool.Rejected()
	rep.Coalesced = s.flights.Coalesced()
	if s.cluster != nil {
		peer := s.cluster.Report()
		rep.Peer = &peer
	}
	writeJSON(w, http.StatusOK, rep)
}

// handlePromMetrics serves GET /metrics: the Prometheus text exposition
// of every registered family (request counters and latency histograms,
// cache/pool/flight gauges, Go runtime stats).
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Prom().Handler().ServeHTTP(w, r)
}

// AutonomicEventsResponse is the JSON body of GET /v1/autonomic/events.
type AutonomicEventsResponse struct {
	// Events are the retained journal entries, oldest first. Total counts
	// every event ever journalled; a Total larger than the highest Seq
	// retained means the bounded ring evicted older entries.
	Events []obs.Event `json:"events"`
	Total  uint64      `json:"total"`
	// Truncated reports that the bounded ring evicted events between the
	// caller's since cursor and the oldest retained entry: the answer is
	// the oldest events still held, but there is a gap the consumer
	// cannot recover.
	Truncated bool `json:"truncated"`
}

// handleAutonomicEvents serves the MAPE-K decision journal. Pass
// ?since=SEQ to receive only events newer than a previously seen
// sequence number (long-poll style incremental consumption).
func (s *Server) handleAutonomicEvents(w http.ResponseWriter, r *http.Request) {
	var events []obs.Event
	var truncated bool
	if q := r.URL.Query().Get("since"); q != "" {
		seq, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since=%q: %v", q, err)
			return
		}
		events, truncated = s.journal.SinceTruncated(seq)
	} else {
		events = s.journal.Snapshot()
	}
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, AutonomicEventsResponse{Events: events, Total: s.journal.Total(), Truncated: truncated})
}

// DeployRequest is the JSON body of POST /v1/deploy: plan (or reuse a
// cached plan for) a platform, then actually launch the hierarchy on the
// in-process middleware runtime and drive closed-loop clients against it.
type DeployRequest struct {
	PlanRequest
	// Transport selects the middleware wire: "chan" (default) or "tcp".
	Transport string `json:"transport,omitempty"`
	// Clients is the closed-loop client count (default 2).
	Clients int `json:"clients,omitempty"`
	// DurationMillis is the load window (default 500ms, capped at 10s).
	DurationMillis int64 `json:"duration_ms,omitempty"`
}

// DeployResponse reports the live run.
type DeployResponse struct {
	Plan         *PlanResponse    `json:"plan"`
	Transport    string           `json:"transport"`
	Clients      int              `json:"clients"`
	DurationMS   float64          `json:"duration_ms"`
	Completed    int64            `json:"completed"`
	Failed       int64            `json:"failed"`
	Timeouts     int64            `json:"timeouts"`
	Throughput   float64          `json:"throughput_rps"`
	ServedCounts map[string]int64 `json:"served_counts"`
}

// parseTransport maps the wire name of a middleware transport ("chan",
// the default, or "tcp") to its kind.
func parseTransport(name string) (deploy.TransportKind, error) {
	switch name {
	case "", "chan":
		return deploy.TransportChan, nil
	case "tcp":
		return deploy.TransportTCP, nil
	}
	return "", fmt.Errorf("unknown transport %q (have chan, tcp)", name)
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	var dr DeployRequest
	if !decodeBody(w, r, &dr) {
		return
	}
	resp, in, status, err := s.plan(r, &dr.PlanRequest)
	if err != nil {
		writePlanError(w, status, err)
		return
	}
	// The platform, materialised on demand: a cache hit never built it.
	req, err := in.request(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "materialise platform: %v", err)
		return
	}

	transport, err := parseTransport(dr.Transport)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	clients := dr.Clients
	if clients <= 0 {
		clients = 2
	}
	duration := 500 * time.Millisecond
	if dr.DurationMillis > 0 {
		duration = time.Duration(dr.DurationMillis) * time.Millisecond
	}
	if duration > maxDeployDuration {
		duration = maxDeployDuration
	}

	// The plan's XML is the hand-off artifact (write_xml), exactly as the
	// CLI pipeline does it: re-parse, launch, load, stop.
	h, err := hierarchy.ParseXML(strings.NewReader(resp.XML))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reparse plan XML: %v", err)
		return
	}
	dep, err := deploy.Launch(h, deploy.Config{
		Transport: transport,
		Options: runtime.Options{
			Costs:     req.Costs,
			Bandwidth: req.Platform.Bandwidth,
			Wapp:      req.Wapp,
			// A workload phrased as a DGEMM dimension runs the real blocked
			// kernel on every service request; a raw Wapp stays
			// protocol-only (no modelled sleeps).
			DgemmN: dr.DgemmN,
		},
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "launch: %v", err)
		return
	}
	defer dep.Stop()
	if s.logger.Enabled(r.Context(), slog.LevelInfo) {
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "deployment launched",
			slog.String("request_id", obs.RequestIDFrom(r.Context())),
			slog.String("transport", string(transport)),
			slog.Int("agents", resp.Agents),
			slog.Int("servers", resp.Servers),
			slog.Int("clients", clients),
			slog.Float64("duration_ms", float64(duration)/float64(time.Millisecond)))
	}

	stats, err := dep.System.RunClients(r.Context(), clients, duration)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "load: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, DeployResponse{
		Plan:         resp,
		Transport:    string(transport),
		Clients:      clients,
		DurationMS:   float64(duration) / float64(time.Millisecond),
		Completed:    stats.Completed,
		Failed:       stats.Failed,
		Timeouts:     stats.Timeouts,
		Throughput:   float64(stats.Completed) / stats.Elapsed.Seconds(),
		ServedCounts: dep.System.ServedCounts(),
	})
}
