package service

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"adept/internal/obs"
	"adept/internal/slo"
)

// initSLO builds the time-series store behind the SLO engine and binds
// every configured objective to its counter sources.
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

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := s.metrics.Snapshot()
	rep.CacheHits, rep.CacheMisses = s.cache.Stats()
	rep.CacheSize = s.cache.Len()
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
