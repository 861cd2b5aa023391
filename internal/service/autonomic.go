package service

import (
	"context"
	"net/http"
	"time"

	"adept/internal/autonomic"
	"adept/internal/deploy"
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
	// Drift pre-schedules drift for the sim backend. (The embedded
	// PlanRequest's "scenario" names the platform, as on every endpoint.)
	Drift []sim.LoadPhase `json:"drift,omitempty"`

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
	// runErr is what ended the loop, if it did not end on its own: written
	// before done closes, read only after.
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
	if a.finished() && a.runErr != nil {
		return a.runErr.Error()
	}
	return ""
}

// status renders the session for the status and stop endpoints.
func (a *autonomicSession) status(done bool) AutonomicStatus {
	return AutonomicStatus{Backend: a.backend, Done: done, RunErr: a.error(), Status: a.ctrl.Status()}
}

// runSession starts ctrl's loop as the daemon's session.
func runSession(backend string, ctrl *autonomic.Controller, live *autonomic.LiveTarget) *autonomicSession {
	//adeptvet:allow ctxflow session-lifetime lifecycle root; the MAPE-K loop outlives the HTTP request that started it
	ctx, cancel := context.WithCancel(context.Background())
	sess := &autonomicSession{backend: backend, ctrl: ctrl, cancel: cancel, done: make(chan struct{}), live: live}
	go func() {
		defer close(sess.done)
		if err := ctrl.Run(ctx); err != nil && ctx.Err() == nil {
			sess.runErr = err
		}
	}()
	return sess
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

// reserveAutonomic takes the daemon's one session slot for a start in
// progress, reaping a session whose loop ended on its own. No lock is held
// across the (potentially slow) planning and deployment that follow, so
// /status, /stop and /inject stay responsive; the caller clears
// autoStarting when it is done. With the slot taken it has answered 409 and
// reports false.
func (s *Server) reserveAutonomic(w http.ResponseWriter) bool {
	if !s.autoStarting.CompareAndSwap(false, true) {
		writeError(w, http.StatusConflict, "an autonomic session is already starting")
		return false
	}
	s.autoMu.Lock()
	old := s.auto
	if old != nil && !old.finished() {
		s.autoMu.Unlock()
		s.autoStarting.Store(false)
		writeError(w, http.StatusConflict, "an autonomic session is already running; stop it first")
		return false
	}
	s.auto = nil
	s.autoMu.Unlock()
	if old != nil {
		// The loop ended on its own (bounded cycles); its live system is
		// still deployed — reap it.
		old.stop()
	}
	return true
}

func (s *Server) handleAutonomicStart(w http.ResponseWriter, r *http.Request) {
	var ar AutonomicRequest
	if !decodeBody(w, r, &ar) {
		return
	}
	if !s.reserveAutonomic(w) {
		return
	}
	defer s.autoStarting.Store(false)

	l, ok := s.planForLaunch(w, r, &ar.PlanRequest)
	if !ok {
		return
	}
	cfg := autonomic.Config{
		Platform:       l.req.Platform,
		Costs:          l.req.Costs,
		Wapp:           l.req.Wapp,
		Demand:         l.req.Demand,
		DriftTolerance: ar.DriftTolerance,
		SagTolerance:   ar.SagTolerance,
		Hysteresis:     ar.Hysteresis,
		CrashWindows:   ar.CrashWindows,
		Cooldown:       ar.Cooldown,
		MinGain:        ar.MinGain,
		MaxCycles:      min(ar.Cycles, 10000),
		Journal:        s.journal,
		Logger:         s.logger,
	}
	// An explicit planner name pins the replan step to the planner resolve
	// made of it; otherwise the control loop's default (the portfolio race)
	// is used.
	if ar.Planner != "" {
		cfg.Planner = l.planner
	}
	clients := ar.Clients
	if clients <= 0 {
		clients = 4
	}

	var target autonomic.Target
	var live *autonomic.LiveTarget
	backend := ar.Backend
	switch backend {
	case "", "live":
		backend = "live"
		if live, ok = startLive(w, l, &ar, clients); !ok {
			return
		}
		target = live
	case "sim":
		if cfg.MaxCycles <= 0 {
			cfg.MaxCycles = 50
		}
		managed, err := sim.NewManaged(l.h, l.req.Costs, l.req.Platform.Bandwidth, l.req.Wapp, clients, ar.Drift)
		if err != nil {
			writeError(w, http.StatusBadRequest, "simulate: %v", err)
			return
		}
		window := ar.WindowSeconds
		if window <= 0 {
			window = 10
		}
		target = &autonomic.SimTarget{Managed: managed, Window: window}
	default:
		writeError(w, http.StatusBadRequest, "unknown backend %q (have live, sim)", ar.Backend)
		return
	}

	ctrl, err := autonomic.New(cfg, target, l.h)
	if err != nil {
		if live != nil {
			live.System().Stop()
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess := runSession(backend, ctrl, live)
	s.autoMu.Lock()
	s.auto = sess
	s.autoMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"backend": backend,
		"clients": clients,
		"cycles":  cfg.MaxCycles,
		"plan":    l.resp,
	})
}

// startLive launches the planned hierarchy on the goroutine middleware,
// through internal/deploy like /v1/deploy, and wraps it as the control
// loop's target. On failure it has answered the client and reports false.
func startLive(w http.ResponseWriter, l *launchable, ar *AutonomicRequest, clients int) (*autonomic.LiveTarget, bool) {
	transport, newTransport, err := deploy.ParseTransport(ar.Transport)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
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
		Costs:        l.req.Costs,
		Bandwidth:    l.req.Platform.Bandwidth,
		Wapp:         l.req.Wapp,
		TimeScale:    timeScale,
		ReplyTimeout: 2 * window,
	}
	dep, err := deploy.Launch(l.h, deploy.Config{Transport: transport, Options: opts})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "launch: %v", err)
		return nil, false
	}
	return autonomic.NewLiveTarget(dep.System, opts, clients, window, newTransport), true
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
		writeError(w, http.StatusBadRequest, "drift injection needs the live backend; sim sessions pre-schedule it via drift")
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
