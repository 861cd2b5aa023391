package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"adept/internal/core"
	"adept/internal/platform"
	"adept/internal/portfolio"
	"adept/internal/service"
)

// span is one timed call into a layer. Spans of one request share Op (its
// stream index); Parent is the span that caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. The replay it records is sequential, but the planner span opens on
// a pool worker goroutine, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	spans []span
	open  []int // ids of the spans not yet ended, innermost last
	op    int
	off   bool // priming ops run through the same code untraced
}

// start opens a span under the innermost open one and returns its end.
func (t *tracer) start(name string) (end func()) {
	return t.startUnder(name, false)
}

// startRoot opens a span with no parent whatever is open.
func (t *tracer) startRoot(name string) (end func()) {
	return t.startUnder(name, true)
}

func (t *tracer) startUnder(name string, root bool) func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return func() {}
	}
	s := span{ID: len(t.spans) + 1, Op: t.op, Name: name}
	if !root && len(t.open) > 0 {
		s.Parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, s.ID)
	s.StartNS = int64(time.Since(epoch))
	t.spans = append(t.spans, s)
	return func() {
		now := int64(time.Since(epoch))
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[s.ID-1].EndNS = now
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == s.ID {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
	}
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of that interval its child spans cover (overlapping children are
// not counted twice, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerStats aggregates spans by name: per traced op the self times of a
// layer's spans are summed, and the layer's value is the median of those
// sums over the ops that called it.
type layerStats struct {
	medianMS map[string]float64
	calls    map[string]int
	// attributedNS sums, per op, the self time of every non-root span:
	// the part of the request the layer table accounts for.
	attributedNS map[int]int64
}

func aggregate(spans []span) layerStats {
	self := selfTimes(spans)
	perOp := map[string]map[int]int64{}
	ls := layerStats{medianMS: map[string]float64{}, calls: map[string]int{}, attributedNS: map[int]int64{}}
	for _, s := range spans {
		if perOp[s.Name] == nil {
			perOp[s.Name] = map[int]int64{}
		}
		perOp[s.Name][s.Op] += self[s.ID]
		ls.calls[s.Name]++
		if s.Parent != 0 {
			ls.attributedNS[s.Op] += self[s.ID]
		}
	}
	for name, ops := range perOp {
		vals := make([]float64, 0, len(ops))
		for _, ns := range ops {
			vals = append(vals, float64(ns)/1e6)
		}
		ls.medianMS[name] = median(vals)
	}
	return ls
}

// pipeline is POST /v1/plan and PUT /v1/platforms/{name} re-composed from
// the public functions of each module, in the order Server.plan and
// handlePlatformPut call them, with a span around every call. It is the
// benchmark's own copy of the request path: when the daemon's path gains
// or loses a step, pipeline.unattributed_share moves and this must follow.
type pipeline struct {
	tr       *tracer
	registry *service.Registry
	cache    *service.PlanCache
	pool     *service.Pool
	versions map[string]uint64

	// Per-op counts gathered at the layer boundaries.
	planned, classPlanned int
	variantsRun           []float64
	xmlKiB, respondKiB    []float64
	nodesUsed             []float64
}

func newPipeline(tr *tracer) (*pipeline, error) {
	cache, err := service.NewPlanCache(256)
	if err != nil {
		return nil, err
	}
	pool, err := service.NewPool(runtime.GOMAXPROCS(0), 64)
	if err != nil {
		return nil, err
	}
	return &pipeline{tr: tr, registry: service.NewRegistry(), cache: cache, pool: pool, versions: map[string]uint64{}}, nil
}

func (p *pipeline) close() { p.pool.Close() }

// call wraps fn in a span.
func (p *pipeline) call(name string, fn func()) {
	end := p.tr.start(name)
	fn()
	end()
}

func (p *pipeline) run(ctx context.Context, o op) error {
	if o.kind == opPut {
		return p.put(o)
	}
	return p.plan(ctx, o)
}

func (p *pipeline) put(o op) (err error) {
	sent := o.payload()
	defer p.tr.startRoot("pipeline.put")()
	var body []byte
	p.call("service.read_body", func() { body, err = io.ReadAll(io.LimitReader(bytes.NewReader(sent), 16<<20)) })
	if err != nil {
		return err
	}
	var plat *platform.Platform
	p.call("platform.parse", func() { plat, err = platform.ParseJSON(body) })
	if err != nil {
		return err
	}
	var expect *uint64
	if v, ok := p.versions[o.target]; ok {
		expect = &v
	}
	var version uint64
	p.call("service.registry_put", func() { version, err = p.registry.PutIfMatch(o.target, plat, expect) })
	if err != nil {
		return err
	}
	p.versions[o.target] = version
	p.call("service.respond", func() {
		_, err = encodeIndented(map[string]any{"name": o.target, "nodes": len(plat.Nodes), "version": version})
	})
	return err
}

// encodeIndented is the daemon's writeJSON encoding.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func (p *pipeline) plan(ctx context.Context, o op) (err error) {
	endRoot := p.tr.startRoot("pipeline.plan")
	var plat *platform.Platform
	var planned *core.Plan
	defer func() {
		endRoot()
		if err == nil && planned != nil && !p.tr.off {
			// "Of which": the class index the classed heuristic builds
			// inside core.plan, timed standalone outside the request.
			defer p.tr.startRoot("core.class_index")()
			core.BuildClassIndex(plat.Nodes)
		}
	}()

	var pr service.PlanRequest
	p.call("service.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(o.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&pr)
	})
	if err != nil {
		return err
	}

	// resolve
	switch {
	case pr.Platform != nil:
		plat = pr.Platform
	case pr.PlatformName != "":
		ok := false
		p.call("service.registry_get", func() { plat, ok = p.registry.Get(pr.PlatformName) })
		if !ok {
			return fmt.Errorf("platform %q not registered", pr.PlatformName)
		}
	case pr.Scenario != nil:
		p.call("scenario.generate", func() { plat, err = pr.Scenario.Generate() })
		if err != nil {
			return err
		}
	}
	planner, err := plannerOf(&pr)
	if err != nil {
		return err
	}
	req := defaultRequest(plat)
	p.call("platform.validate", func() { err = req.Validate() })
	if err != nil {
		return err
	}

	var key service.CacheKey
	p.call("service.key", func() { key, err = service.KeyFor(planner.Name(), req) })
	if err != nil {
		return err
	}

	var entry *service.CachedPlan
	var variants []portfolio.Result
	cached := false
	start := time.Now()
	p.call("service.cache", func() { entry, cached = p.cache.Lookup(key) })
	if !cached {
		// The flight leader looks again before it charges the miss.
		p.call("service.cache", func() {
			if _, ok := p.cache.Lookup(key); !ok {
				p.cache.NoteMiss(key)
			}
		})
		p.call("service.pool", func() {
			planned, err = p.pool.Submit(ctx, func(ctx context.Context) (*core.Plan, error) {
				if pf, ok := planner.(*portfolio.Planner); ok {
					defer p.tr.start("portfolio.race")()
					plan, vs, err := pf.PlanWithStats(ctx, req)
					variants = vs
					return plan, err
				}
				defer p.tr.start("core.plan")()
				return planner.PlanContext(ctx, req)
			})
		})
		if err != nil {
			return err
		}
		// service.Render, opened up so that the XML is its own span.
		p.call("service.render", func() {
			var xml string
			p.call("hierarchy.xml", func() { xml, err = planned.XML() })
			stats := planned.Hierarchy.ComputeStats()
			cp := *planned
			cp.Hierarchy = planned.Hierarchy.Clone()
			entry = &service.CachedPlan{Plan: &cp, XML: xml, Stats: stats}
		})
		if err != nil {
			return err
		}
		p.call("service.cache", func() { p.cache.Put(key, entry) })
	}

	var minBW, maxBW float64
	p.call("platform.link_range", func() { minBW, maxBW = plat.LinkRange() })
	var encoded []byte
	p.call("service.respond", func() {
		plan := entry.Plan
		encoded, err = encodeIndented(&service.PlanResponse{
			Planner: plan.Planner, Key: string(key), Cached: cached,
			Rho: plan.Eval.Rho, Sched: plan.Eval.Sched, Service: plan.Eval.Service,
			Bottleneck: plan.Eval.Bottleneck.String(), Capped: plan.Capped,
			NodesUsed: plan.NodesUsed, PoolNodes: len(plat.Nodes),
			SpecClasses: plan.PoolClasses, ClassPlanned: plan.ClassPlanned,
			Agents: entry.Stats.Agents, Servers: entry.Stats.Servers, Depth: entry.Stats.Depth,
			MinLinkBandwidth: minBW, MaxLinkBandwidth: maxBW,
			XML: entry.XML, ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			Variants: variants,
		})
	})
	if err != nil || p.tr.off {
		return err
	}

	p.respondKiB = append(p.respondKiB, float64(len(encoded))/1024)
	if planned != nil {
		p.planned++
		if planned.ClassPlanned {
			p.classPlanned++
		}
		p.xmlKiB = append(p.xmlKiB, float64(len(entry.XML))/1024)
		p.nodesUsed = append(p.nodesUsed, float64(planned.NodesUsed))
		if variants != nil {
			ran := 0
			for _, v := range variants {
				if v.Skipped == "" {
					ran++
				}
			}
			p.variantsRun = append(p.variantsRun, float64(ran))
		}
	}
	return nil
}
