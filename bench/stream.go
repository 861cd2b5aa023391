package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/service"
)

// The four workloads. Names are stable: later issues cite them.
const (
	fleetCold   = "fleet_cold"
	fleetHit    = "fleet_hit"
	mixSmall    = "mix_small"
	replanChurn = "replan_churn"
)

// workloadWhy records why each workload exists (also in BENCHMARK.json).
var workloadWhy = map[string]string{
	fleetCold:   "100k-node scenario requests, a new seed every op: every op is a cache miss on the class-collapsed planner path (generate, key, class index, plan, render, encode all do O(n) work).",
	fleetHit:    "The same request shape over 4 specs primed in setup: every op is a cache hit, so planner, render and cache-put are bypassed and only generate, validate and key remain.",
	mixSmall:    "Inline 25-400-node platforms of all seven families, 15% portfolio, 75% Zipf over a 96-body hot set and 25% never-seen bodies: per-request overhead at the paper's scale.",
	replanChurn: "8 registered 4000-node platforms; the client loops PUT one (If-Match, 5% of powers perturbed), plan it (miss), plan 3 others (hits): writes beside reads on the registry.",
}

func workloadNames() []string { return []string{fleetCold, fleetHit, mixSmall, replanChurn} }

const (
	fleetNodes = 100000 // n of the fleet_* scenario requests
	churnNodes = 4000   // below the 4096-node class-planning threshold: node-space path
	churnNames = 8
	hotSetSize = 96
	hotShare   = 0.75 // share of mix_small ops drawn from the hot set
	zipfS      = 1.1
	// feedAhead is how many ops mix_small's producer keeps ready ahead of
	// the client: about three seconds of what the seed commit sustains.
	feedAhead = 4096
	// digestOps is the stream prefix hashed into stream_sha256 — fixed, so
	// the digest does not depend on how many ops a run got through.
	digestOps = 1000
	// rhoSample is how many distinct plan requests feed rho_geomean.
	rhoSample = 64
)

var mixSizes = []int{25, 50, 100, 200, 400}

type opKind int

const (
	opPlan opKind = iota
	opPut
)

// expectation is what the stream's design says about the cache.
type expectation int

const (
	expectEither expectation = iota // hot-set op: a hit unless the LRU evicted it
	expectHit
	expectMiss
)

// op is one request of a stream. It is a pure function of
// (workload, seed, index): nothing the daemon answers feeds back into it.
type op struct {
	kind opKind
	path string
	// body is the request body; nil for a PUT, whose 245 KB body is
	// rendered from tmpl at send time (a copy plus ~200 number patches)
	// instead of holding every version in memory.
	body []byte
	// tmpl and gen are the registered platform and the version of it an op
	// writes (PUT) or plans (platform_name request).
	tmpl *putTemplate
	gen  int
	// id names the distinct plan request: every answer to the same id must
	// be identical (hits, misses and coalesced answers alike).
	id string
	// prevID, on the plan that follows a PUT, names the same platform's
	// previous version: the new answer must carry a different key.
	prevID string
	// target is the registered platform a PUT writes (its If-Match state).
	target string
	expect expectation
}

func (o op) payload() []byte {
	if o.kind == opPut {
		return o.tmpl.render(o.gen)
	}
	return o.body
}

// stream is one workload's op sequence plus its setup.
type stream struct {
	name string
	seed int64
	// group is the number of consecutive ops that belong together (a
	// replan_churn cycle); the client checks its deadline only between groups.
	group int
	// prime is the setup: registry PUTs, then priming plan requests.
	prime []op
	gen   func(i int) op
	// feed, on mix_small, carries the ops in index order from a producer
	// goroutine that stays feedAhead ops ahead of the client: generating
	// and marshalling an inline platform per miss (~0.1 ms) stays off the
	// client's path, and no daemon, however fast, runs the stream dry.
	feed chan op
	// designedHit is the cache hit ratio the stream is built to produce.
	designedHit float64
	// tracedOps and verifyOps size the traced pass and the deep verify
	// pass; fleet ops cost ~100 ms each in process, the others ~1 ms.
	tracedOps, verifyOps int
}

func newStream(name string, seed int64) (*stream, error) {
	s := &stream{name: name, seed: seed, group: 1}
	switch name {
	case fleetCold:
		s.initFleet(false)
	case fleetHit:
		s.initFleet(true)
	case mixSmall:
		s.initMix()
	case replanChurn:
		if err := s.initChurn(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	return s, nil
}

// startFeed starts mix_small's producer (a no-op on the other workloads,
// whose ops cost nothing to draw). The returned stop ends it and waits.
func (s *stream) startFeed(ctx context.Context) (stop func()) {
	if s.name != mixSmall {
		return func() {}
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	s.feed = make(chan op, feedAhead)
	go func() {
		defer close(done)
		defer close(s.feed)
		for i := 0; ; i++ {
			select {
			case s.feed <- s.gen(i):
			case <-ctx.Done():
				return
			}
		}
	}()
	return func() { cancel(); <-done }
}

// splitmix64 finaliser: the streams' only source of randomness, so that op
// i needs no generator state carried over from op i-1.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h += v + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// workloadTag separates the random streams of the workloads under one seed.
func workloadTag(name string) uint64 {
	for i, n := range workloadNames() {
		if n == name {
			return uint64(i + 1)
		}
	}
	return 0
}

func (s *stream) rand(vals ...uint64) uint64 {
	return mix(append([]uint64{uint64(s.seed), workloadTag(s.name)}, vals...)...)
}

// primeBase offsets the indices priming requests draw their randomness
// from, far beyond any index a window reaches.
const primeBase = 1 << 40

func planBody(pr service.PlanRequest) []byte {
	body, err := json.Marshal(pr)
	if err != nil {
		// Only a NaN/Inf power could fail here, and generated platforms
		// are validated: a bug, not an input.
		panic(fmt.Sprintf("bench: marshal plan request: %v", err))
	}
	return body
}

// ---- fleet_cold / fleet_hit ------------------------------------------------

func (s *stream) fleetOp(i uint64, id string, expect expectation) op {
	fam := scenario.ClusterGrid
	if i%2 == 1 {
		fam = scenario.FatTree
	}
	spec := scenario.Spec{Family: fam, N: fleetNodes, Seed: int64(s.rand(i) >> 1), PowerLevels: 8}
	return op{kind: opPlan, path: "/v1/plan", body: planBody(service.PlanRequest{Scenario: &spec}), id: id, expect: expect}
}

func (s *stream) initFleet(hit bool) {
	s.tracedOps, s.verifyOps = 8, 4
	if hit {
		// Four specs primed in setup, then round-robin: all hits.
		s.designedHit = 1
		for j := 0; j < 4; j++ {
			s.prime = append(s.prime, s.fleetOp(uint64(j), "spec-"+strconv.Itoa(j), expectMiss))
		}
		s.gen = func(i int) op {
			o := s.prime[i%4]
			o.expect = expectHit
			return o
		}
		return
	}
	// One answered request per family before the window (the daemon's
	// first plans grow its heap); their seeds never recur in the stream.
	s.designedHit = 0
	for j := 0; j < 2; j++ {
		s.prime = append(s.prime, s.fleetOp(primeBase+uint64(j), "warm-"+strconv.Itoa(j), expectMiss))
	}
	s.gen = func(i int) op {
		return s.fleetOp(uint64(i), "cold-"+strconv.Itoa(i), expectMiss)
	}
}

// ---- mix_small -------------------------------------------------------------

// mixOp builds one inline-platform request: the family and size picked
// by shape, the platform drawn from specSeed.
func (s *stream) mixOp(shape, specSeed uint64, portfolio bool, id string, expect expectation) op {
	fams := scenario.Families()
	spec := scenario.Spec{
		Family: fams[shape%uint64(len(fams))],
		N:      mixSizes[(shape/uint64(len(fams)))%uint64(len(mixSizes))],
		Seed:   int64(specSeed >> 1),
	}
	plat, err := spec.Generate()
	if err != nil {
		panic(fmt.Sprintf("bench: generate %+v: %v", spec, err)) // sizes and families are fixed above
	}
	pr := service.PlanRequest{Platform: plat, Portfolio: portfolio}
	return op{kind: opPlan, path: "/v1/plan", body: planBody(pr), id: id, expect: expect}
}

func (s *stream) initMix() {
	s.tracedOps, s.verifyOps = 256, 64
	// The 25% never-seen bodies push the hot set's unpopular tail out of
	// the daemon's 16 × 16-entry LRU shards between two of its uses, so the
	// hit ratio settles a little under the hot share (measured 0.70-0.72).
	s.designedHit = 0.71
	// The hot set is indexed by popularity rank, and its shapes do not
	// depend on the seed: body r has shape 37r mod 96 (37 is coprime with
	// 96, so family and size are scattered over the ranks and the popular
	// bodies are not all the small ones) and races the portfolio when
	// r mod 7 is 2, which is 14% of requests under the Zipf weights. Only
	// the platforms drawn depend on the seed. rho_geomean is taken over
	// the first 64 bodies, so it compares like with like on every seed.
	for r := uint64(0); r < hotSetSize; r++ {
		s.prime = append(s.prime, s.mixOp(r*37%hotSetSize, s.rand(primeBase+r), r%7 == 2, "hot-"+strconv.Itoa(int(r)), expectMiss))
	}
	// Zipf(s) cumulative popularity over the hot set's ranks.
	cdf := make([]float64, hotSetSize)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -zipfS)
		cdf[r] = sum
	}
	s.gen = func(i int) op {
		x := s.rand(uint64(i))
		if u := unit(s.rand(uint64(i), 1)); u >= hotShare {
			return s.mixOp(x, x, (x>>32)%100 < 15, "new-"+strconv.Itoa(i), expectMiss)
		}
		o := s.prime[sort.SearchFloat64s(cdf, unit(x)*sum)]
		o.expect = expectEither
		return o
	}
}

// ---- replan_churn ----------------------------------------------------------

// churnCycle is one loop iteration: PUT a name, plan it, plan the next 3 names.
const churnCycle = 5

func churnName(k int) string { return "churn-" + strconv.Itoa(k) }

func churnID(k, gen int) string { return churnName(k) + "@" + strconv.Itoa(gen) }

func (s *stream) initChurn() error {
	s.tracedOps, s.verifyOps = 40*churnCycle, 16
	s.group = churnCycle
	s.designedHit = 0.75
	fams := []scenario.Family{scenario.Clustered, scenario.PowerLaw, scenario.Bimodal, scenario.TracePerturbed}
	tmpls := make([]*putTemplate, churnNames)
	plans := make([][]byte, churnNames)
	for k := range tmpls {
		spec := scenario.Spec{Family: fams[k%len(fams)], Name: churnName(k), N: churnNodes, Seed: int64(s.rand(primeBase+uint64(k)) >> 1)}
		plat, err := spec.Generate()
		if err != nil {
			return fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		tmpls[k] = newPutTemplate(plat, s.rand(uint64(k), 2))
		plans[k] = planBody(service.PlanRequest{PlatformName: churnName(k)})
	}
	put := func(k, gen int) op {
		return op{kind: opPut, path: "/v1/platforms/" + churnName(k), tmpl: tmpls[k], gen: gen, target: churnName(k)}
	}
	plan := func(k, gen int, expect expectation) op {
		// tmpl and gen let the verify pass rebuild the registered version.
		return op{kind: opPlan, path: "/v1/plan", body: plans[k], tmpl: tmpls[k], gen: gen, id: churnID(k, gen), target: churnName(k), expect: expect}
	}
	for k := 0; k < churnNames; k++ {
		s.prime = append(s.prime, put(k, 0))
	}
	for k := 0; k < churnNames; k++ {
		s.prime = append(s.prime, plan(k, 0, expectMiss))
	}
	s.gen = func(i int) op {
		c, step := i/churnCycle, i%churnCycle
		k, gen := c%churnNames, c/churnNames+1 // the name this cycle rewrites, and to which version
		switch step {
		case 0:
			return put(k, gen)
		case 1:
			o := plan(k, gen, expectMiss)
			o.prevID = churnID(k, gen-1)
			return o
		}
		// Steps 2..4 plan the next three names at whatever version their
		// last PUT left: names before k were rewritten this round.
		k2 := (k + step - 1) % churnNames
		gen2 := c / churnNames
		if k2 < k {
			gen2++
		}
		return plan(k2, gen2, expectHit)
	}
	return nil
}

// powerWidth is the fixed width a putTemplate reserves per node power:
// the digits, then spaces (JSON allows whitespace after a value).
const powerWidth = 12

// putTemplate is a registered platform marshalled once with fixed-width
// power fields, so a new version is a copy plus in-place number patches.
type putTemplate struct {
	body []byte
	off  []int // offset of each node's power field in body
	base []float64
	seed uint64
}

func newPutTemplate(p *platform.Platform, seed uint64) *putTemplate {
	t := &putTemplate{seed: seed}
	b := []byte(`{"name":` + strconv.Quote(p.Name) + `,"bandwidth_mbps":` + strconv.FormatFloat(p.Bandwidth, 'g', -1, 64) + `,"nodes":[`)
	for i, n := range p.Nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`+strconv.Quote(n.Name)+`,"power":`...)
		t.off = append(t.off, len(b))
		t.base = append(t.base, n.Power)
		b = append(b, make([]byte, powerWidth)...)
		writePower(b[len(b)-powerWidth:], n.Power)
		if n.LinkBandwidth > 0 {
			b = append(b, `,"link_bandwidth_mbps":`+strconv.FormatFloat(n.LinkBandwidth, 'g', -1, 64)...)
		}
		b = append(b, '}')
	}
	t.body = append(b, "]}"...)
	return t
}

func writePower(field []byte, v float64) {
	n := len(strconv.AppendFloat(field[:0], v, 'f', 4, 64))
	for i := n; i < len(field); i++ {
		field[i] = ' '
	}
}

// render returns version gen of the platform: the base with 5% of node
// powers redrawn within ±10% (gen 0 is the base itself). Each version is
// perturbed from the base, not from its predecessor, so it depends on gen
// alone.
func (t *putTemplate) render(gen int) []byte {
	out := append([]byte(nil), t.body...)
	if gen == 0 {
		return out
	}
	n := uint64(len(t.base))
	for c := uint64(0); c < n/20; c++ {
		x := mix(t.seed, uint64(gen), c)
		idx := x % n
		v := t.base[idx] * (0.9 + 0.2*unit(mix(x)))
		writePower(out[t.off[idx]:t.off[idx]+powerWidth], v)
	}
	return out
}

// ---- description -----------------------------------------------------------

// inputs describes a stream for bench/out/inputs-<workload>.json.
type inputs struct {
	Workload     string  `json:"workload"`
	Why          string  `json:"why"`
	Seed         int64   `json:"seed"`
	StreamSHA256 string  `json:"stream_sha256"`
	DigestOps    int     `json:"digest_ops"`
	PrimeOps     int     `json:"prime_ops"`
	DesignedHit  float64 `json:"designed_hit_ratio"`
	BodyBytes    struct {
		Min    int `json:"min"`
		Median int `json:"median"`
		Max    int `json:"max"`
	} `json:"body_bytes"`
	// Popularity is how often each of the most requested ids recurs in the
	// digested prefix, most popular first (at most 16 rows), plus how many
	// distinct ids the prefix holds.
	Popularity  []popRow `json:"popularity"`
	DistinctIDs int      `json:"distinct_plan_ids"`
	PutOps      int      `json:"put_ops"`
}

type popRow struct {
	ID    string `json:"id"`
	Count int    `json:"count"`
}

// describe digests the first digestOps ops: the digest depends on
// (workload, seed) alone.
func (s *stream) describe() inputs {
	in := inputs{Workload: s.name, Why: workloadWhy[s.name], Seed: s.seed, DigestOps: digestOps, PrimeOps: len(s.prime), DesignedHit: s.designedHit}
	h := sha256.New()
	counts := map[string]int{}
	var sizes []float64
	for i := 0; i < digestOps; i++ {
		o := s.gen(i)
		body := o.payload()
		fmt.Fprintf(h, "%d %s %s %d\n", o.kind, o.path, o.id, len(body))
		h.Write(body)
		sizes = append(sizes, float64(len(body)))
		if o.kind == opPut {
			in.PutOps++
		} else {
			counts[o.id]++
		}
	}
	in.StreamSHA256 = hex.EncodeToString(h.Sum(nil))
	in.BodyBytes.Min = int(percentile(sizes, 0))
	in.BodyBytes.Median = int(median(sizes))
	in.BodyBytes.Max = int(percentile(sizes, 1))
	in.DistinctIDs = len(counts)
	for id, n := range counts {
		in.Popularity = append(in.Popularity, popRow{id, n})
	}
	sort.Slice(in.Popularity, func(a, b int) bool {
		pa, pb := in.Popularity[a], in.Popularity[b]
		if pa.Count != pb.Count {
			return pa.Count > pb.Count
		}
		return pa.ID < pb.ID
	})
	if len(in.Popularity) > 16 {
		in.Popularity = in.Popularity[:16]
	}
	return in
}

// rhoOps lists the first distinct plan requests (at most rhoSample): the
// primed ones in set-up order, then the stream's in stream order. They are
// the requests rho_geomean is taken over and, the first verifyOps of them,
// the ones the verify pass checks in depth. The list depends on
// (workload, seed) alone, not on how far a run got.
func (s *stream) rhoOps() []op {
	var ops []op
	seen := map[string]bool{}
	add := func(o op) {
		if o.kind == opPlan && !seen[o.id] && len(ops) < rhoSample {
			seen[o.id] = true
			ops = append(ops, o)
		}
	}
	for _, o := range s.prime {
		add(o)
	}
	// The prefix scanned is bounded: fleet_hit has only four distinct ids.
	for i := 0; i < 64*rhoSample && len(ops) < rhoSample; i++ {
		add(s.gen(i))
	}
	return ops
}
