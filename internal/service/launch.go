package service

import (
	"log/slog"
	"net/http"
	"strings"
	"time"

	"adept/internal/core"
	"adept/internal/deploy"
	"adept/internal/hierarchy"
	"adept/internal/obs"
	"adept/internal/runtime"
)

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

// launchable is a plan ready to be launched: the answer to the request, the
// planner that made it, the model inputs with the platform materialised,
// and the hierarchy re-parsed from the plan's XML.
type launchable struct {
	resp    *PlanResponse
	planner core.Planner
	req     core.Request
	h       *hierarchy.Hierarchy
}

// planForLaunch is the hand-off /v1/deploy and /v1/autonomic/start share:
// plan the request (or reuse a cached plan), materialise the platform — a
// cache hit never built it — and re-parse the plan's XML, the write_xml
// artifact, exactly as the CLI pipeline does. On failure it has answered
// the client and reports false.
func (s *Server) planForLaunch(w http.ResponseWriter, r *http.Request, pr *PlanRequest) (*launchable, bool) {
	resp, in, err := s.plan(r, pr)
	if err != nil {
		writePlanError(w, r, err)
		return nil, false
	}
	// Materialised in memory of its own: it becomes the launched platform.
	req, err := in.request(r.Context(), nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "materialise platform: %v", err)
		return nil, false
	}
	// What is launched runs on whole nodes, whatever the planner read.
	req.Platform = req.Columns.Platform()
	h, err := hierarchy.ParseXML(strings.NewReader(resp.XML))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reparse plan XML: %v", err)
		return nil, false
	}
	return &launchable{resp: resp, planner: in.planner, req: req, h: h}, true
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	var dr DeployRequest
	if !decodeBody(w, r, &dr) {
		return
	}
	transport, _, err := deploy.ParseTransport(dr.Transport)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	l, ok := s.planForLaunch(w, r, &dr.PlanRequest)
	if !ok {
		return
	}
	clients := dr.Clients
	if clients <= 0 {
		clients = 2
	}
	duration := 500 * time.Millisecond
	if dr.DurationMillis > 0 {
		duration = min(time.Duration(dr.DurationMillis)*time.Millisecond, maxDeployDuration)
	}

	dep, err := deploy.Launch(l.h, deploy.Config{
		Transport: transport,
		Options: runtime.Options{
			Costs:     l.req.Costs,
			Bandwidth: l.req.Platform.Bandwidth,
			Wapp:      l.req.Wapp,
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
			slog.Int("agents", l.resp.Agents),
			slog.Int("servers", l.resp.Servers),
			slog.Int("clients", clients),
			slog.Float64("duration_ms", float64(duration)/float64(time.Millisecond)))
	}

	stats, err := dep.System.RunClients(r.Context(), clients, duration)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "load: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, DeployResponse{
		Plan:         l.resp,
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
