package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"adept/internal/obs"
	"adept/internal/slo"
)

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
	// journalCapacity bounds the autonomic event journal ring.
	journalCapacity = 256
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
	autoStarting atomic.Bool

	// cluster is the optional peer layer (EnableCluster); nil means
	// single-node mode and every peer code path short-circuits.
	cluster Cluster

	// classPlans counts fresh planning runs answered by the heuristic's
	// class-collapsed path (cache hits do not re-count).
	classPlans atomic.Uint64

	// jobs keeps one planning job's memory between jobs (runPlan). A miss
	// otherwise leaves its pool's worth to the collector — a 100k-node
	// scenario's power, class and dealt-order columns, 1.6 MB — and so does
	// a registry write, which has its pool planned again. One spare, not one
	// per P: concurrent jobs past the first allocate, and no more than one
	// set outlives them.
	jobs spare[job]
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
		journal:  obs.NewJournal(journalCapacity),
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
	// The Prometheus text exposition of every registered family: request
	// counters and latency histograms, cache/pool/flight gauges, Go runtime.
	s.mux.Handle("GET /metrics", s.instrument("metrics_prom", s.metrics.Prom().Handler().ServeHTTP))
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
		start := obs.StartTimer()
		h(rec, r)
		elapsed := start.Elapsed()
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

// encoder is where a response body is encoded: a buffer and an indenting
// json.Encoder bound to it, whose indent buffer survives between bodies.
type encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// encoders keeps one encoder between responses, as Server.jobs keeps one
// job's memory: a body encoded from scratch regrows both buffers from
// empty, a few hundred KB of garbage for one fleet answer.
var encoders spare[encoder]

// maxSpareBody bounds the body whose encoder is kept: a larger one (a
// platform GET of a fleet) leaves its buffers to the collector rather
// than pinning them until the next body that size.
const maxSpareBody = 1 << 20

// writeJSON answers v, indented, with status — once v has encoded: a value
// that does not (a NaN or an infinity) is answered 500 with the usual error
// body, never a status with an empty body. The body goes out in one Write.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := encoders.take()
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
		e.enc.SetIndent("", "  ")
	}
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		e.buf.Reset()
		_ = e.enc.Encode(apiError{Error: fmt.Sprintf("encode response: %v", err)}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
	if e.buf.Cap() <= maxSpareBody {
		encoders.put(e)
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
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

// decodeBody decodes the request's JSON body into v with encoding/json,
// refusing a member v does not have, as the body streams in: a value that
// ends before the limit is decoded whatever follows it. On failure it has
// answered the client (413 for a body over maxRequestBody, else 400) and
// reports false. /v1/plan decodes its own way (decodePlanRequest) and
// keeps this decoder to word its refusals.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeFrom(w, http.MaxBytesReader(w, r.Body, maxRequestBody), v)
}

// decodeFrom is decodeBody over body.
func decodeFrom(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, bodyErrorStatus(err), "decode request: %v", err)
		return false
	}
	return true
}
