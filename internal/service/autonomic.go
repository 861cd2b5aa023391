package service

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"adept/internal/autonomic"
	"adept/internal/core"
	"adept/internal/deploy"
	"adept/internal/hierarchy"
	"adept/internal/runtime"
	"adept/internal/sim"
)

// This file surfaces the autonomic MAPE-K loop (internal/autonomic)
// through the daemon:
//
//	POST /v1/autonomic/start   plan, deploy, and start the control loop
//	POST /v1/autonomic/stop    stop the loop (and the live system)
//	GET  /v1/autonomic/status  adaptation history, patches, throughput
//	POST /v1/autonomic/inject  inject background load on a live server
//
// One session runs at a time: the loop owns its deployed system, and a
// second concurrent deployment of the same platform would fight over
// nothing real.

// ScenarioPhase is one step of a simulated drift scenario.
type ScenarioPhase struct {
	// At is the simulated time in seconds.
	At float64 `json:"at"`
	// Factors maps server names to background-load slowdown factors.
	Factors map[string]float64 `json:"factors,omitempty"`
	// AddClients starts extra closed-loop clients at At.
	AddClients int `json:"add_clients,omitempty"`
	// RemoveClients retires that many closed-loop clients at At.
	RemoveClients int `json:"remove_clients,omitempty"`
	// Crash marks the named servers crashed at At: they keep answering
	// scheduling from stale estimates but every service request times out
	// and fails until a Restore.
	Crash []string `json:"crash,omitempty"`
	// Restore revives the named servers at At.
	Restore []string `json:"restore,omitempty"`
}

// AutonomicRequest is the JSON body of POST /v1/autonomic/start. The
// embedded PlanRequest produces the initial deployment; the rest tunes
// the loop.
type AutonomicRequest struct {
	PlanRequest
	// Backend selects "live" (goroutine middleware, real-time windows;
	// default) or "sim" (deterministic discrete-event simulation).
	Backend string `json:"backend,omitempty"`
	// Transport selects the live middleware wire: "chan" (default), "tcp".
	Transport string `json:"transport,omitempty"`
	// Clients is the closed-loop client count (default 4).
	Clients int `json:"clients,omitempty"`
	// WindowMillis is the live measurement window (default 500ms).
	WindowMillis int64 `json:"window_ms,omitempty"`
	// WindowSeconds is the sim measurement window (default 10s simulated).
	WindowSeconds float64 `json:"window_s,omitempty"`
	// TimeScale converts modelled virtual seconds to live wall-clock
	// (default 0.002).
	TimeScale float64 `json:"time_scale,omitempty"`
	// Cycles bounds the loop (default: unbounded live, 50 sim).
	Cycles int `json:"cycles,omitempty"`
	// Scenario pre-schedules drift for the sim backend.
	Scenario []ScenarioPhase `json:"scenario,omitempty"`

	// Loop tuning; zero means the autonomic package default.
	DriftTolerance float64 `json:"drift_tolerance,omitempty"`
	SagTolerance   float64 `json:"sag_tolerance,omitempty"`
	Hysteresis     int     `json:"hysteresis,omitempty"`
	CrashWindows   int     `json:"crash_windows,omitempty"`
	Cooldown       int     `json:"cooldown,omitempty"`
	MinGain        float64 `json:"min_gain,omitempty"`
}

// AutonomicStatus is the JSON body of GET /v1/autonomic/status.
type AutonomicStatus struct {
	Backend string           `json:"backend"`
	Done    bool             `json:"done"`
	RunErr  string           `json:"run_error,omitempty"`
	Status  autonomic.Status `json:"status"`
}

// autonomicSession is the daemon's one running control loop.
type autonomicSession struct {
	backend string
	ctrl    *autonomic.Controller
	cancel  context.CancelFunc
	done    chan struct{}
	live    *autonomic.LiveTarget // nil for the sim backend

	mu     sync.Mutex
	runErr error
}

func (a *autonomicSession) finished() bool {
	select {
	case <-a.done:
		return true
	default:
		return false
	}
}

func (a *autonomicSession) error() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.runErr != nil {
		return a.runErr.Error()
	}
	return ""
}

// status renders the session for the status and stop endpoints.
func (a *autonomicSession) status(done bool) AutonomicStatus {
	return AutonomicStatus{Backend: a.backend, Done: done, RunErr: a.error(), Status: a.ctrl.Status()}
}

// stop cancels the loop, waits for it, and tears the live system down.
func (a *autonomicSession) stop() {
	a.cancel()
	select {
	case <-a.done:
	case <-time.After(10 * time.Second):
	}
	if a.live != nil {
		a.live.System().Stop()
	}
}

func (s *Server) handleAutonomicStart(w http.ResponseWriter, r *http.Request) {
	var ar AutonomicRequest
	if !decodeBody(w, r, &ar) {
		return
	}
	// Reserve the session slot without holding the lock across the
	// (potentially slow) planning and deployment below, so /status, /stop
	// and /inject stay responsive.
	s.autoMu.Lock()
	if s.autoStarting {
		s.autoMu.Unlock()
		writeError(w, http.StatusConflict, "an autonomic session is already starting")
		return
	}
	if s.auto != nil {
		if !s.auto.finished() {
			s.autoMu.Unlock()
			writeError(w, http.StatusConflict, "an autonomic session is already running; stop it first")
			return
		}
		// The loop ended on its own (bounded cycles); its live system is
		// still deployed — reap it before taking the slot.
		old := s.auto
		s.auto = nil
		s.autoMu.Unlock()
		old.stop()
		s.autoMu.Lock()
	}
	s.autoStarting = true
	s.autoMu.Unlock()
	defer func() {
		s.autoMu.Lock()
		s.autoStarting = false
		s.autoMu.Unlock()
	}()

	resp, in, status, err := s.plan(r, &ar.PlanRequest)
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
	h, err := hierarchy.ParseXML(strings.NewReader(resp.XML))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reparse plan XML: %v", err)
		return
	}
	// An explicit planner name pins the replan step; otherwise the control
	// loop's default (the portfolio race) is used.
	var planner core.Planner
	if ar.Planner != "" {
		var err error
		if planner, err = SelectPlanner(ar.Planner); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	clients := ar.Clients
	if clients <= 0 {
		clients = 4
	}
	maxCycles := ar.Cycles

	cfg := autonomic.Config{
		Planner:        planner,
		Platform:       req.Platform,
		Costs:          req.Costs,
		Wapp:           req.Wapp,
		Demand:         req.Demand,
		DriftTolerance: ar.DriftTolerance,
		SagTolerance:   ar.SagTolerance,
		Hysteresis:     ar.Hysteresis,
		CrashWindows:   ar.CrashWindows,
		Cooldown:       ar.Cooldown,
		MinGain:        ar.MinGain,
		Journal:        s.journal,
		Logger:         s.logger,
	}

	var target autonomic.Target
	var live *autonomic.LiveTarget
	backend := ar.Backend
	switch backend {
	case "", "live":
		backend = "live"
		kind, err := parseTransport(ar.Transport)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		timeScale := ar.TimeScale
		if timeScale <= 0 {
			timeScale = 0.002
		}
		window := 500 * time.Millisecond
		if ar.WindowMillis > 0 {
			window = time.Duration(ar.WindowMillis) * time.Millisecond
		}
		opts := runtime.Options{
			Costs:        req.Costs,
			Bandwidth:    req.Platform.Bandwidth,
			Wapp:         req.Wapp,
			TimeScale:    timeScale,
			ReplyTimeout: 2 * window,
		}
		newTransport := func() runtime.Transport {
			if kind == deploy.TransportTCP {
				return runtime.NewTCPTransport()
			}
			return runtime.NewChanTransport()
		}
		sys, err := runtime.Deploy(h, newTransport(), opts)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "launch: %v", err)
			return
		}
		live = autonomic.NewLiveTarget(sys, opts, clients, window, newTransport)
		target = live
	case "sim":
		if maxCycles <= 0 {
			maxCycles = 50
		}
		window := ar.WindowSeconds
		if window <= 0 {
			window = 10
		}
		scenario := make([]sim.LoadPhase, 0, len(ar.Scenario))
		for _, ph := range ar.Scenario {
			// ScenarioPhase is sim.LoadPhase with JSON tags: the conversion
			// stops compiling the day the two drift apart.
			scenario = append(scenario, sim.LoadPhase(ph))
		}
		managed, err := sim.NewManaged(h, req.Costs, req.Platform.Bandwidth, req.Wapp, clients, scenario)
		if err != nil {
			writeError(w, http.StatusBadRequest, "simulate: %v", err)
			return
		}
		target = &autonomic.SimTarget{Managed: managed, Window: window}
	default:
		writeError(w, http.StatusBadRequest, "unknown backend %q (have live, sim)", ar.Backend)
		return
	}
	if maxCycles > 10000 {
		maxCycles = 10000
	}
	cfg.MaxCycles = maxCycles

	ctrl, err := autonomic.New(cfg, target, h)
	if err != nil {
		if live != nil {
			live.System().Stop()
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	//adeptvet:allow ctxflow session-lifetime lifecycle root; the MAPE-K loop outlives the HTTP request that started it
	ctx, cancel := context.WithCancel(context.Background())
	sess := &autonomicSession{backend: backend, ctrl: ctrl, cancel: cancel, done: make(chan struct{}), live: live}
	go func() {
		defer close(sess.done)
		if err := ctrl.Run(ctx); err != nil && ctx.Err() == nil {
			sess.mu.Lock()
			sess.runErr = err
			sess.mu.Unlock()
		}
	}()
	s.autoMu.Lock()
	s.auto = sess
	s.autoMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"backend": backend,
		"clients": clients,
		"cycles":  maxCycles,
		"plan":    resp,
	})
}

// session returns the daemon's autonomic session. With none it has
// answered 404 and returns nil.
func (s *Server) session(w http.ResponseWriter) *autonomicSession {
	s.autoMu.Lock()
	sess := s.auto
	s.autoMu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, "no autonomic session")
	}
	return sess
}

func (s *Server) handleAutonomicStop(w http.ResponseWriter, r *http.Request) {
	sess := s.stopAutonomic()
	if sess == nil {
		writeError(w, http.StatusNotFound, "no autonomic session")
		return
	}
	writeJSON(w, http.StatusOK, sess.status(true))
}

func (s *Server) handleAutonomicStatus(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w); sess != nil {
		writeJSON(w, http.StatusOK, sess.status(sess.finished()))
	}
}

// IncidentsResponse is the JSON body of GET /v1/autonomic/incidents:
// the session's correlated incident records plus MTTR percentiles over
// the resolved ones.
type IncidentsResponse struct {
	Incidents []autonomic.Incident  `json:"incidents"`
	Summary   autonomic.MTTRSummary `json:"summary"`
}

// handleAutonomicIncidents serves the running (or finished but not yet
// stopped) session's incident log.
func (s *Server) handleAutonomicIncidents(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w)
	if sess == nil {
		return
	}
	in := sess.ctrl.Incidents()
	if in == nil {
		in = []autonomic.Incident{}
	}
	writeJSON(w, http.StatusOK, IncidentsResponse{Incidents: in, Summary: autonomic.SummarizeMTTR(in)})
}

// InjectRequest is the JSON body of POST /v1/autonomic/inject: live drift
// injection (the §5.3 background load, flipped on at runtime).
type InjectRequest struct {
	Server string  `json:"server"`
	Factor float64 `json:"factor"`
}

func (s *Server) handleAutonomicInject(w http.ResponseWriter, r *http.Request) {
	var ir InjectRequest
	if !decodeBody(w, r, &ir) {
		return
	}
	sess := s.session(w)
	if sess == nil {
		return
	}
	if sess.live == nil {
		writeError(w, http.StatusBadRequest, "drift injection needs the live backend; sim sessions pre-schedule it via scenario")
		return
	}
	if err := sess.live.System().SetBackgroundLoad(ir.Server, ir.Factor); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"server": ir.Server, "factor": ir.Factor})
}

// stopAutonomic detaches and tears down the session, if any, and returns
// it (the stop endpoint and the daemon shutdown path).
func (s *Server) stopAutonomic() *autonomicSession {
	s.autoMu.Lock()
	sess := s.auto
	s.auto = nil
	s.autoMu.Unlock()
	if sess != nil {
		sess.stop()
	}
	return sess
}
