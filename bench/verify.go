package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
	"adept/internal/portfolio"
	"adept/internal/service"
	"adept/internal/workload"
)

// defaultRequest is the core.Request the daemon builds around plat for a
// body that sets neither costs, wapp nor demand — as every stream body.
func defaultRequest(plat *platform.Platform) core.Request {
	return core.Request{Platform: plat, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop()}
}

// plannerOf is the planner the daemon picks for pr.
func plannerOf(pr *service.PlanRequest) (core.Planner, error) {
	if pr.Portfolio {
		return portfolio.New(), nil
	}
	return service.SelectPlanner(pr.Planner)
}

// requestOf rebuilds, from an op alone, what the daemon planned for it:
// the wire request, the platform (inline, generated from the scenario
// spec, or the registered version the op names) and the planner.
func requestOf(o op) (pr service.PlanRequest, req core.Request, planner core.Planner, err error) {
	if err = json.Unmarshal(o.body, &pr); err != nil {
		return pr, req, nil, err
	}
	var plat *platform.Platform
	switch {
	case pr.Platform != nil:
		plat = pr.Platform
	case pr.Scenario != nil:
		plat, err = pr.Scenario.Generate()
	default:
		plat, err = platform.ParseJSON(o.tmpl.render(o.gen))
	}
	if err != nil {
		return pr, req, nil, err
	}
	planner, err = plannerOf(&pr)
	return pr, defaultRequest(plat), planner, err
}

// verifyAnswer checks one daemon answer in depth: the XML parses into a
// hierarchy that uses only nodes of the request's platform, the §3 model
// evaluated on that hierarchy reproduces the reported rho, and planning
// the same request in process yields the same XML. "" means it holds.
func verifyAnswer(ctx context.Context, o op, resp *planAnswer) string {
	_, req, planner, err := requestOf(o)
	if err != nil {
		return "rebuild request: " + err.Error()
	}
	h, err := hierarchy.ParseXML(strings.NewReader(resp.XML))
	if err != nil {
		return "parse xml: " + err.Error()
	}
	if err := h.CheckAgainstPlatform(req.Platform); err != nil {
		return err.Error()
	}
	ev := h.Evaluate(req.Costs, req.Platform.Bandwidth, req.Wapp)
	if math.Abs(ev.Rho-resp.Rho) > 1e-9*resp.Rho {
		return fmt.Sprintf("model gives rho %g for the answered hierarchy, the answer says %g", ev.Rho, resp.Rho)
	}
	if want := math.Min(ev.Sched, ev.Service); ev.Rho != want {
		return fmt.Sprintf("rho %g is not min(sched %g, service %g)", ev.Rho, ev.Sched, ev.Service)
	}
	plan, err := planner.PlanContext(ctx, req)
	if err != nil {
		return "plan in process: " + err.Error()
	}
	xml, err := plan.XML()
	if err != nil {
		return "render in process: " + err.Error()
	}
	if sha256.Sum256([]byte(xml)) != sha256.Sum256([]byte(resp.XML)) {
		return fmt.Sprintf("in-process plan differs from the daemon's (rho %g vs %g, %d vs %d nodes)", plan.Eval.Rho, resp.Rho, plan.NodesUsed, resp.NodesUsed)
	}
	return ""
}

// allocKiB is how much fn allocated, in KiB. It reads the allocator's
// counters with the world stopped, which also empties the allocator's
// per-CPU caches, so it is never used around a timed call.
func allocKiB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

// allocProbe measures what scenario.Spec.Generate and service.KeyFor
// allocate on the stream's first n plan ops, apart from any timing.
func allocProbe(st *stream, n int) (generate, key []float64, err error) {
	for i := 0; len(key) < n && i < st.tracedOps; i++ {
		o := st.gen(i)
		if o.kind != opPlan {
			continue
		}
		pr, req, planner, err := requestOf(o)
		if err != nil {
			return nil, nil, err
		}
		if pr.Scenario != nil {
			generate = append(generate, allocKiB(func() { _, err = pr.Scenario.Generate() }))
		}
		key = append(key, allocKiB(func() { _, err = service.KeyFor(planner.Name(), req) }))
		if err != nil {
			return nil, nil, err
		}
	}
	return generate, key, nil
}
