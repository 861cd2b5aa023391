package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"adept/internal/obs"
)

// reply is what a target answered.
type reply struct {
	status int
	etag   string
	body   []byte
}

// target is where ops go: the daemon over one keep-alive connection, or
// the service handler in process.
type target interface {
	roundTrip(method, path, ifMatch string, body []byte) (reply, error)
}

// httpTarget is the closed-loop client: a transport capped at one
// keep-alive connection.
type httpTarget struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newHTTPTarget(base string) *httpTarget {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpTarget{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

func (t *httpTarget) roundTrip(method, path, ifMatch string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	// The buffer is reused: the caller is done with the previous reply's
	// bytes before it sends the next op.
	t.buf.Reset()
	if _, err := io.Copy(&t.buf, resp.Body); err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: t.buf.Bytes()}, nil
}

// handlerTarget drives a service handler in process.
type handlerTarget struct{ h http.Handler }

func (t handlerTarget) roundTrip(method, path, ifMatch string, body []byte) (reply, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return reply{status: rec.Code, etag: rec.Header().Get("ETag"), body: rec.Body.Bytes()}, nil
}

// answer is the part of a plan response every answer to the same distinct
// request must repeat exactly.
type answer struct {
	key       string
	rho       float64
	nodesUsed int
	xmlSHA    [sha256.Size]byte
}

// planAnswer is a plan response decoded in full, for the verify pass and
// the traced pass; the per-op check reads a wireAnswer (scan.go).
type planAnswer struct {
	Key       string         `json:"key"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced"`
	Rho       float64        `json:"rho"`
	Sched     float64        `json:"sched"`
	Service   float64        `json:"service"`
	NodesUsed int            `json:"nodes_used"`
	XML       string         `json:"xml"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Trace     *obs.PlanTrace `json:"trace"`
}

// sample is one completed op.
type sample struct {
	kind       opKind
	start, end time.Duration // since epoch
	ok         bool
}

func (s sample) ms() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// hostMS is the op's latency on the host clock, in ms.
func (s sample) hostMS(c *hostClock) float64 {
	host, _ := c.span(s.start.Seconds(), s.end.Seconds())
	return host * 1e3
}

// runner sends a stream's ops to a target, one at a time, and checks every
// answer. One runner holds the client-side state of one server instance
// (reference answers, ETags), so each daemon and each in-process replay
// gets its own.
type runner struct {
	st *stream
	// clock prices the runner's wall times in host time; between ops the
	// runner gives it its slots (paced).
	clock *hostClock

	refs map[string]answer
	etag map[string]string
	// keep names the ids whose whole response is retained for the verify
	// pass; full holds them.
	keep map[string]bool
	full map[string]*planAnswer

	attempted, failed int
	failures          []string // first few, for the report

	next int // index of the next op drawn from a stream without a producer
	// starved counts the ops the client had to wait for the stream's producer.
	starved int
}

// newRunner makes a runner that retains the whole answers to keep.
func newRunner(st *stream, clock *hostClock, keep []op) *runner {
	r := &runner{st: st, clock: clock, refs: map[string]answer{}, etag: map[string]string{}, keep: map[string]bool{}, full: map[string]*planAnswer{}}
	for _, o := range keep {
		r.keep[o.id] = true
	}
	return r
}

// setup sends the stream's priming ops in order; any failure is fatal to
// the run, since every later check leans on the references made here.
func (r *runner) setup(t target) error {
	for i, o := range r.st.prime {
		if s := r.paced(t, o); !s.ok {
			return fmt.Errorf("setup op %d (%s %s): %v", i, o.path, o.id, r.failures)
		}
	}
	return nil
}

// traceBody turns a plan request body into the same request with
// "trace":true.
func traceBody(body []byte) []byte {
	return append([]byte(`{"trace":true,`), body[1:]...)
}

// paced sends one op of a measured stretch: first the host clock gets its
// slot if one is due, so that every op lies between two slots.
func (r *runner) paced(t target, o op) sample {
	r.clock.tickIfDue()
	s, _ := r.exec(t, o, false)
	return s
}

// exec sends one op and checks the answer; sample times are since epoch.
// The returned body is that of a plan answered right (nil for PUTs and
// failures) and is the target's until its next round trip.
func (r *runner) exec(t target, o op, traced bool) (sample, []byte) {
	body := o.payload()
	method, ifMatch := http.MethodPost, ""
	if o.kind == opPut {
		method = http.MethodPut
		ifMatch = r.etag[o.target]
	} else if traced {
		body = traceBody(body)
	}
	begin := time.Now()
	rep, err := t.roundTrip(method, o.path, ifMatch, body)
	s := sample{kind: o.kind, start: begin.Sub(epoch), end: time.Since(epoch)}

	var got wireAnswer
	msg := ""
	switch {
	case err != nil:
		msg = err.Error()
	case rep.status != http.StatusOK:
		msg = fmt.Sprintf("status %d: %.200s", rep.status, rep.body)
	case o.kind == opPut:
		if rep.etag == "" {
			msg = "no ETag"
		}
	default:
		if got, err = scanAnswer(rep.body); err != nil {
			msg = "decode: " + err.Error()
		}
	}

	r.attempted++
	if msg == "" && o.kind == opPlan {
		msg = r.check(o, got)
	}
	if msg == "" && r.keep[o.id] && r.full[o.id] == nil {
		resp := new(planAnswer)
		if err := json.Unmarshal(rep.body, resp); err != nil {
			msg = "decode: " + err.Error()
		} else {
			r.full[o.id] = resp
		}
	}
	if msg != "" {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf("%s %s %s: %s", method, o.path, o.id, msg))
		}
		return s, nil
	}
	if o.kind == opPut {
		r.etag[o.target] = rep.etag
	}
	s.ok = true
	if o.kind == opPut {
		return s, nil
	}
	return s, rep.body
}

// check is the per-op answer check; "" means the answer is right.
func (r *runner) check(o op, w wireAnswer) string {
	got := w.answer
	if got.key == "" || w.xmlBytes == 0 || got.nodesUsed < 2 || !(got.rho > 0) {
		return fmt.Sprintf("incomplete answer (key %q, %d xml bytes, %d nodes, rho %g)", got.key, w.xmlBytes, got.nodesUsed, got.rho)
	}
	if want := math.Min(w.sched, w.service); math.Abs(got.rho-want) > 1e-9*want {
		return fmt.Sprintf("rho %g is not min(sched %g, service %g)", got.rho, w.sched, w.service)
	}
	switch {
	case o.expect == expectHit && !w.cached:
		return "designed hit answered cached=false"
	case o.expect == expectMiss && (w.cached || w.coalesced):
		return fmt.Sprintf("designed miss answered cached=%v coalesced=%v", w.cached, w.coalesced)
	}
	ref, seen := r.refs[o.id]
	switch {
	case seen && got != ref:
		return fmt.Sprintf("answer differs from the first answer to the same request (key %.12s vs %.12s, rho %g vs %g, nodes %d vs %d)", got.key, ref.key, got.rho, ref.rho, got.nodesUsed, ref.nodesUsed)
	case !seen && o.expect == expectHit:
		return "designed hit on a request never answered before"
	}
	if prev, ok := r.refs[o.prevID]; o.prevID != "" && (!ok || prev.key == got.key) {
		return fmt.Sprintf("plan after PUT carries the key of the previous version (%.12s): stale platform", got.key)
	}
	if !seen {
		r.refs[o.id] = got
	}
	return ""
}

// epoch is the zero of sample times.
var epoch = time.Now()

// nextOp hands out the next op: from the stream's producer if it has one
// (channel order is index order), else drawn on the spot. It reports false
// once a cancelled run has stopped the producer.
func (r *runner) nextOp() (op, bool) {
	if r.st.feed == nil {
		r.next++
		return r.st.gen(r.next - 1), true
	}
	select {
	case o, ok := <-r.st.feed:
		return o, ok
	default:
		r.starved++
		o, ok := <-r.st.feed
		return o, ok
	}
}

// phase is one timed stretch of load: the warm-up or the window.
type phase struct {
	start, end float64 // seconds since epoch
	samples    []sample
}

// runPhase drives the target closed-loop for d, continuing the stream
// where the previous phase stopped, with a slot of the host clock at both
// ends. The client looks at the wall clock only between op groups.
func (r *runner) runPhase(ctx context.Context, t target, d time.Duration) phase {
	r.clock.tick()
	ph := phase{start: sinceEpoch()}
	deadline := ph.start + d.Seconds()
	for n := 0; ; n++ {
		if n%r.st.group == 0 && (sinceEpoch() >= deadline || ctx.Err() != nil) {
			break
		}
		o, ok := r.nextOp()
		if !ok {
			break
		}
		ph.samples = append(ph.samples, r.paced(t, o))
	}
	ph.end = sinceEpoch()
	r.clock.tick()
	return ph
}
