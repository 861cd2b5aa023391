package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"adept/internal/service"
)

// perLayer are the metrics of single layers. All but the adeptd.* window
// counters, the host.* diagnostics and the wall.* twins of the end-to-end
// times come from the traced pass, which runs after the window and never
// feeds an end-to-end metric. Layer times are medians over the traced ops
// that called the layer of the span's self time, on the wall clock; a
// layer a workload never calls reads 0.
var perLayer = []metricSpec{
	{"service.decode_ms", "ms", "lower"},
	{"scenario.generate_ms", "ms", "lower"},
	{"scenario.generate_alloc_kib", "KiB", "lower"},
	{"platform.validate_ms", "ms", "lower"},
	{"service.read_body_ms", "ms", "lower"},
	{"platform.parse_ms", "ms", "lower"},
	{"platform.link_range_ms", "ms", "lower"},
	{"service.registry_put_ms", "ms", "lower"},
	{"service.registry_get_ms", "ms", "lower"},
	{"service.key_ms", "ms", "lower"},
	{"service.key_alloc_kib", "KiB", "lower"},
	{"service.cache_ms", "ms", "lower"},
	{"service.pool_ms", "ms", "lower"},
	{"core.plan_ms", "ms", "lower"},
	{"core.class_index_ms", "ms", "lower"},
	{"core.class_planned_share", "ratio", "higher"},
	{"portfolio.race_ms", "ms", "lower"},
	{"portfolio.variants_per_op", "count", "lower"},
	{"service.render_ms", "ms", "lower"},
	{"hierarchy.xml_ms", "ms", "lower"},
	{"hierarchy.xml_kib_per_op", "KiB", "lower"},
	{"hierarchy.nodes_used_per_op", "count", "lower"},
	{"service.respond_ms", "ms", "lower"},
	{"service.respond_kib_per_op", "KiB", "lower"},
	{"service.handler_ms", "ms", "lower"},
	{"service.handler_alloc_kib_per_op", "KiB", "lower"},
	{"service.handler_allocs_per_op", "count", "lower"},
	{"pipeline.unattributed_share", "ratio", "lower"},
	{"adeptd.wire_overhead_ms", "ms", "lower"},
	{"adeptd.phase.resolve_ms", "ms", "lower"},
	{"adeptd.phase.cache_lookup_ms", "ms", "lower"},
	{"adeptd.phase.plan_ms", "ms", "lower"},
	{"adeptd.phase.render_ms", "ms", "lower"},
	{"adeptd.phase.flight_wait_ms", "ms", "lower"},
	{"adeptd.elapsed_report_ratio", "ratio", "higher"},
	{"obs.trace_overhead_share", "ratio", "lower"},
	{"adeptd.fail_share", "ratio", "lower"},
	{"adeptd.cache_hit_ratio", "ratio", "higher"},
	{"adeptd.coalesced_share", "ratio", "lower"},
	{"adeptd.plans_executed_per_op", "count", "lower"},
	{"adeptd.rejected", "count", "lower"},
	{"adeptd.put_p50_ms", "ms", "lower"},
	{"host.steal_share", "ratio", "lower"},
	{"host.loadgen_cpu_share", "ratio", "lower"},
	{"host.ref_ms", "ms", "lower"},
	{"host.speed", "ratio", "higher"},
	{"host.slot_share", "ratio", "lower"},
	{"wall.ops_per_s", "ops/s", "higher"},
	{"wall.plan_p50_ms", "ms", "lower"},
	{"wall.plan_p95_ms", "ms", "lower"},
	{"wall.cpu_ms_per_op", "ms", "lower"},
	{"wall.setup_s", "s", "lower"},
}

// spanMetric maps a span name to the layer time it reports as.
var spanMetric = map[string]string{
	"service.decode":       "service.decode_ms",
	"scenario.generate":    "scenario.generate_ms",
	"platform.validate":    "platform.validate_ms",
	"platform.parse":       "platform.parse_ms",
	"platform.link_range":  "platform.link_range_ms",
	"service.read_body":    "service.read_body_ms",
	"service.registry_put": "service.registry_put_ms",
	"service.registry_get": "service.registry_get_ms",
	"service.key":          "service.key_ms",
	"service.cache":        "service.cache_ms",
	"service.pool":         "service.pool_ms",
	"core.plan":            "core.plan_ms",
	"core.class_index":     "core.class_index_ms",
	"portfolio.race":       "portfolio.race_ms",
	"service.render":       "service.render_ms",
	"hierarchy.xml":        "hierarchy.xml_ms",
	"service.respond":      "service.respond_ms",
}

// maxUnattributed is ROADMAP's "the layers must add up to the whole".
const maxUnattributed = 0.10

// tracedPass produces the traced per-layer metrics of one workload. It
// replays the first st.tracedOps ops of the stream, sequentially and in
// process, twice against fresh state — through the real handler, and
// through the pipeline re-composed from public functions with a span
// around every call — then sends the daemon the next ops of the stream
// with "trace":true, and as many again without, for its own phases and the
// tracing overhead.
func tracedPass(ctx context.Context, res *result, st *stream, run *runner, daemon target) error {
	handlerMS, handlerPlanMS, err := handlerReplay(res, st, run)
	if err != nil {
		return err
	}
	if err := pipelineReplay(ctx, res, st, handlerMS); err != nil {
		return err
	}
	daemonReplay(res, st, run, daemon, median(handlerPlanMS))
	return nil
}

// handlerReplay times the real handler in process: service.handler_ms by
// op index, and the plans among them. Answers are checked like the
// daemon's; failures count against the run.
func handlerReplay(res *result, st *stream, run *runner) (all, plans []float64, err error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	hrun := newRunner(st, run.clock, nil)
	handler := handlerTarget{srv.Handler()}
	if err := hrun.setup(handler); err != nil {
		return nil, nil, fmt.Errorf("in-process handler: %w", err)
	}
	k := st.tracedOps
	all = make([]float64, k)
	// Both replays start from a collected heap, so that neither pays for
	// marking what the other (or the window's bookkeeping) left behind.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < k; i++ {
		s, _ := hrun.exec(handler, st.gen(i), false)
		all[i] = s.ms()
		if s.kind == opPlan {
			plans = append(plans, s.ms())
		}
	}
	runtime.ReadMemStats(&after)
	run.attempted += hrun.attempted
	run.failed += hrun.failed
	for _, f := range hrun.failures {
		res.Failures = append(res.Failures, "in-process handler: "+f)
	}
	res.layer("service.handler_ms", median(all))
	res.layer("service.handler_alloc_kib_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(k))
	res.layer("service.handler_allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(k))
	return all, plans, nil
}

// pipelineReplay sends the same ops through the re-composed pipeline and
// turns its spans into the layer metrics; handlerMS is the whole the
// layers must add up to.
func pipelineReplay(ctx context.Context, res *result, st *stream, handlerMS []float64) error {
	tr := &tracer{off: true}
	pipe, err := newPipeline(tr)
	if err != nil {
		return err
	}
	defer pipe.close()
	for _, o := range st.prime {
		if err := pipe.run(ctx, o); err != nil {
			return fmt.Errorf("pipeline setup %s: %w", o.id, err)
		}
	}
	runtime.GC()
	tr.off = false
	for i := range handlerMS {
		tr.op = i
		if err := pipe.run(ctx, st.gen(i)); err != nil {
			return fmt.Errorf("pipeline op %d: %w", i, err)
		}
	}
	res.spans = tr.spans
	ls := aggregate(tr.spans)
	for spanName, metric := range spanMetric {
		res.layer(metric, ls.medianMS[spanName])
	}
	genKiB, keyKiB, err := allocProbe(st, 4)
	if err != nil {
		return fmt.Errorf("alloc probe: %w", err)
	}
	res.layer("scenario.generate_alloc_kib", median(genKiB))
	res.layer("service.key_alloc_kib", median(keyKiB))
	res.layer("core.class_planned_share", div(float64(pipe.classPlanned), float64(pipe.planned)))
	res.layer("portfolio.variants_per_op", mean(pipe.variantsRun))
	res.layer("hierarchy.xml_kib_per_op", mean(pipe.xmlKiB))
	res.layer("hierarchy.nodes_used_per_op", mean(pipe.nodesUsed))
	res.layer("service.respond_kib_per_op", mean(pipe.respondKiB))
	attributed, whole := 0.0, 0.0
	for i, ms := range handlerMS {
		attributed += float64(ls.attributedNS[i]) / 1e6
		whole += ms
	}
	unattributed := 1 - div(attributed, whole)
	res.layer("pipeline.unattributed_share", unattributed)
	if unattributed > maxUnattributed {
		// Warn-only: it says the layer table misses a step of the request
		// path, not that the run is wrong.
		res.Warnings = append(res.Warnings, fmt.Sprintf("pipeline.unattributed_share %.3f > %.2f: a layer is missing from the traced pipeline", unattributed, maxUnattributed))
	}
	return nil
}

// daemonReplay collects the daemon's own account: st.tracedOps traced
// ops, then as many untraced, continuing the stream after the window.
func daemonReplay(res *result, st *stream, run *runner, daemon target, handlerPlanMS float64) {
	phases := map[string][]float64{}
	var tracedMS, plainMS, reportRatio []float64
	for pass := 0; pass < 2; pass++ {
		for n := 0; n < st.tracedOps; n++ {
			o, ok := run.nextOp()
			if !ok {
				return // the run was cancelled; runWorkload reports it
			}
			s, body := run.exec(daemon, o, pass == 0)
			var resp planAnswer
			if body == nil || json.Unmarshal(body, &resp) != nil {
				continue // a PUT, or a failure exec has counted
			}
			if pass == 1 {
				plainMS = append(plainMS, s.ms())
				reportRatio = append(reportRatio, div(resp.ElapsedMS, s.ms()))
				continue
			}
			tracedMS = append(tracedMS, s.ms())
			if resp.Trace == nil {
				run.attempted++
				run.failed++
				res.Failures = append(res.Failures, "traced "+o.id+`: "trace":true answered without a trace`)
				continue
			}
			for _, p := range resp.Trace.Phases {
				phases[p.Name] = append(phases[p.Name], p.DurationMS)
			}
		}
	}
	for _, name := range []string{"resolve", "cache_lookup", "plan", "render", "flight_wait"} {
		res.layer("adeptd.phase."+name+"_ms", median(phases[name]))
	}
	res.layer("adeptd.wire_overhead_ms", median(plainMS)-handlerPlanMS)
	res.layer("adeptd.elapsed_report_ratio", median(reportRatio))
	res.layer("obs.trace_overhead_share", div(mean(tracedMS)-mean(plainMS), mean(plainMS)))
}
