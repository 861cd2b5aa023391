package service

import (
	"runtime"
	"runtime/debug"
	"time"

	"adept/internal/obs"
)

// Metrics aggregates the daemon's request counters and latency
// distributions on top of internal/obs primitives: one counter pair and
// one log-bucketed histogram per endpoint, all registered in a
// Prometheus registry that GET /metrics exposes directly. The JSON
// report served by GET /v1/metrics is derived from the same histograms,
// so the two endpoints can never disagree. All methods are safe for
// concurrent use; the Observe hot path is three atomic operations.
type Metrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec
	errors   *obs.CounterVec
	latency  *obs.HistogramVec
	started  time.Time
}

// NewMetrics returns zeroed metrics with the uptime clock started and a
// fresh Prometheus registry holding the request families.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:      reg,
		requests: reg.CounterVec("adeptd_requests_total", "HTTP requests served, by endpoint.", "endpoint"),
		errors:   reg.CounterVec("adeptd_request_errors_total", "HTTP requests answered with a server-attributable error status (>= 400, excluding 499 client disconnects), by endpoint.", "endpoint"),
		latency:  reg.HistogramVec("adeptd_request_duration_seconds", "HTTP request service latency, by endpoint.", obs.LatencyBuckets(), "endpoint"),
		//adeptvet:allow nondet uptime epoch; serving-layer telemetry, not planner state
		started: time.Now(),
	}
	reg.GaugeFunc("adeptd_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		//adeptvet:allow nondet uptime gauge; serving-layer telemetry, not planner state
		return time.Since(m.started).Seconds()
	})
	v, rev, gover := buildIdent()
	reg.GaugeVec("adeptd_build_info", "Build metadata; the value is fixed at 1, the information is in the labels.",
		"version", "revision", "goversion").With(v, rev, gover).Set(1)
	return m
}

// buildIdent resolves the binary's version identifiers from the embedded
// build info: module version, VCS revision (short), and Go toolchain.
func buildIdent() (version, revision, goVersion string) {
	version, revision, goVersion = "unknown", "unknown", runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			revision = s.Value
			if len(revision) > 12 {
				revision = revision[:12]
			}
		}
	}
	return
}

// BuildMeta is the build-identity block of the JSON metrics report,
// mirroring the adeptd_build_info gauge labels.
type BuildMeta struct {
	Version   string `json:"version"`
	Revision  string `json:"revision"`
	GoVersion string `json:"goversion"`
}

// Totals returns the cumulative request and error counts summed across
// endpoints — the (total, bad) pair availability SLOs bind to.
func (m *Metrics) Totals() (requests, errors uint64) {
	m.requests.Do(func(_ []string, c *obs.Counter) { requests += c.Value() })
	m.errors.Do(func(_ []string, c *obs.Counter) { errors += c.Value() })
	return
}

// EndpointTotals returns one endpoint's cumulative (requests, errors)
// pair — what an endpoint-scoped availability SLO binds to.
func (m *Metrics) EndpointTotals(endpoint string) (requests, errors uint64) {
	return m.requests.With(endpoint).Value(), m.errors.With(endpoint).Value()
}

// EndpointLatency returns the latency histogram of one endpoint
// (created on first use) — what latency SLOs bind to.
func (m *Metrics) EndpointLatency(endpoint string) *obs.Histogram {
	return m.latency.With(endpoint)
}

// Prom exposes the Prometheus registry so the server can add gauges for
// components that keep their own counters (cache, pool, flights) and
// serve the text exposition.
func (m *Metrics) Prom() *obs.Registry { return m.reg }

// Observe records one request against endpoint with its service latency
// and whether it failed (status >= 400, excluding client disconnects).
func (m *Metrics) Observe(endpoint string, d time.Duration, failed bool) {
	m.requests.With(endpoint).Inc()
	if failed {
		m.errors.With(endpoint).Inc()
	}
	m.latency.With(endpoint).Observe(d.Seconds())
}

// EndpointMetrics is the per-endpoint slice of a metrics report.
// Percentiles are estimated from the cumulative latency histogram by
// linear interpolation within the containing bucket.
type EndpointMetrics struct {
	Requests  uint64  `json:"requests"`
	Errors    uint64  `json:"errors"`
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
}

// Report is the JSON body served by GET /v1/metrics.
type Report struct {
	UptimeSeconds float64   `json:"uptime_seconds"`
	Build         BuildMeta `json:"build"`
	Requests      uint64    `json:"requests"`
	// Errors totals server-attributable request failures (status >= 400)
	// across endpoints. Client disconnects (499) are never counted.
	// Requests shed by the admission queue answer 429 and so are part of
	// this total as plan-endpoint errors, in addition to being counted
	// separately under Rejected.
	Errors      uint64 `json:"errors"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheSize   int    `json:"cache_size"`
	Platforms   int    `json:"platforms"`
	ActivePlans int    `json:"active_plans"`
	Workers     int    `json:"workers"`
	// QueueDepth is the instantaneous count of planning jobs waiting for
	// a worker; QueueCapacity is the -queue bound. Rejected counts
	// fail-fast 429 admissions (these also surface as plan-endpoint
	// errors — see Errors), Coalesced counts requests that shared
	// another request's planning run, and PlansExecuted counts actual
	// planner executions on the pool.
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Rejected      uint64 `json:"rejected"`
	Coalesced     uint64 `json:"coalesced"`
	PlansExecuted uint64 `json:"plans_executed"`
	// Peer carries the cluster-layer counters (forwards, fallbacks,
	// invalidations, peer errors) and is present only when the daemon
	// runs clustered — the same numbers GET /metrics exposes as the
	// adeptd_peer_* families.
	Peer      *PeerReport                `json:"peer,omitempty"`
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
}

// Snapshot renders the counters into a Report; cache/registry/pool gauges
// are filled in by the caller.
func (m *Metrics) Snapshot() Report {
	v, rev, gover := buildIdent()
	rep := Report{
		//adeptvet:allow nondet uptime report; serving-layer telemetry, not planner state
		UptimeSeconds: time.Since(m.started).Seconds(),
		Build:         BuildMeta{Version: v, Revision: rev, GoVersion: gover},
		Endpoints:     make(map[string]EndpointMetrics),
	}
	errs := make(map[string]uint64)
	m.errors.Do(func(values []string, c *obs.Counter) {
		errs[values[0]] = c.Value()
	})
	m.requests.Do(func(values []string, c *obs.Counter) {
		ep := values[0]
		em := EndpointMetrics{Requests: c.Value(), Errors: errs[ep]}
		if h := m.latency.With(ep); h.Count() > 0 {
			em.P50Millis = h.Quantile(0.50) * 1e3
			em.P99Millis = h.Quantile(0.99) * 1e3
		}
		rep.Requests += em.Requests
		rep.Errors += em.Errors
		rep.Endpoints[ep] = em
	})
	return rep
}
