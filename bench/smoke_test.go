package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"adept/internal/service"
)

// TestSmoke runs every workload's set-up and first ops against the real
// service behind an httptest.Server, checks every answer the way a
// measured run does, verifies one answer in depth, and sends the same ops
// through the re-composed pipeline: a change to the service API or to the
// request path breaks here, at test time, not at measurement time.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames() {
		// A fleet op plans 100k nodes (~0.1 s): a handful is enough.
		ops := 20
		if name == fleetCold || name == fleetHit {
			if testing.Short() {
				continue
			}
			ops = 4
		}
		t.Run(name, func(t *testing.T) {
			st := mustStream(t, name, 1)
			first := st.rhoOps()[0]
			srv, err := service.New(service.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			tgt := newHTTPTarget(ts.URL)
			defer tgt.close()

			run := newRunner(st, newHostClock(), []op{first})
			if err := run.setup(tgt); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ops; i++ {
				o := st.gen(i)
				// Every other op also asks for the daemon's trace.
				_, body := run.exec(tgt, o, i%2 == 1)
				if body == nil {
					continue // a PUT, or a failure counted below
				}
				// The one-pass scan the per-op check rests on must read what
				// encoding/json reads.
				var resp planAnswer
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				quoted, _ := json.Marshal(resp.XML)
				want := wireAnswer{answer{resp.Key, resp.Rho, resp.NodesUsed, sha256.Sum256(quoted)}, resp.Cached, resp.Coalesced, resp.Sched, resp.Service, len(quoted) - 2}
				if got, err := scanAnswer(body); err != nil || got != want {
					t.Errorf("op %d: scanAnswer read %+v (%v), encoding/json %+v", i, got, err, want)
				}
				if i%2 == 1 && resp.Trace == nil {
					t.Errorf("op %d: no trace in a traced answer", i)
				}
			}
			if run.failed != 0 || run.attempted != len(st.prime)+ops {
				t.Fatalf("%d of %d ops failed: %v", run.failed, run.attempted, run.failures)
			}
			resp, ok := run.full[first.id]
			if !ok {
				t.Fatalf("the first distinct request %s was never answered", first.id)
			}
			if msg := verifyAnswer(ctx, first, resp); msg != "" {
				t.Errorf("verify %s: %s", first.id, msg)
			}

			tr := &tracer{off: true}
			pipe, err := newPipeline(tr)
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.close()
			for _, o := range st.prime {
				if err := pipe.run(ctx, o); err != nil {
					t.Fatalf("pipeline set-up: %v", err)
				}
			}
			tr.off = false
			for i := 0; i < ops; i++ {
				tr.op = i
				if err := pipe.run(ctx, st.gen(i)); err != nil {
					t.Fatalf("pipeline op %d: %v", i, err)
				}
			}
			ls := aggregate(tr.spans)
			if ls.calls["pipeline.plan"]+ls.calls["pipeline.put"] != ops {
				t.Errorf("%d root spans for %d ops", ls.calls["pipeline.plan"]+ls.calls["pipeline.put"], ops)
			}
			for name := range ls.calls {
				if _, ok := spanMetric[name]; !ok && name != "pipeline.plan" && name != "pipeline.put" {
					t.Errorf("span %q reports as no per-layer metric", name)
				}
			}
		})
	}
}

// A wrong answer must be caught: the same request answered differently,
// a hit that was designed as a miss, a stale platform after a PUT.
func TestCheckCatchesWrongAnswers(t *testing.T) {
	st := mustStream(t, fleetHit, 1)
	r := newRunner(st, newHostClock(), nil)
	answered := func(rho, sched float64, cached bool, xmlBytes int) wireAnswer {
		return wireAnswer{answer: answer{key: "k1", rho: rho, nodesUsed: 5}, cached: cached, sched: sched, service: 12, xmlBytes: xmlBytes}
	}
	good := answered(10, 10, false, 4)
	miss := op{kind: opPlan, id: "a", expect: expectMiss}
	if msg := r.check(miss, good); msg != "" {
		t.Fatalf("a good answer was refused: %s", msg)
	}
	hit := op{kind: opPlan, id: "a", expect: expectHit}
	cached := answered(10, 10, true, 4)
	for what, c := range map[string]struct {
		o op
		a wireAnswer
	}{
		"a designed hit answered uncached":       {hit, good},
		"a designed miss answered from cache":    {miss, cached},
		"a different rho for the same request":   {hit, answered(9, 9, true, 4)},
		"rho that is not min(sched, service)":    {hit, answered(10, 11, true, 4)},
		"an empty deployment":                    {hit, answered(10, 10, true, 0)},
		"a hit on a request never seen":          {op{kind: opPlan, id: "b", expect: expectHit}, cached},
		"the previous version's key after a PUT": {op{kind: opPlan, id: "a2", prevID: "a", expect: expectMiss}, good},
	} {
		if msg := r.check(c.o, c.a); msg == "" {
			t.Errorf("%s was accepted", what)
		}
	}
}

// A body that is not a whole JSON object must be refused, not misread.
func TestScanAnswerRefusesMalformed(t *testing.T) {
	for _, body := range []string{"", "[1]", `{"rho": 1`, `{"xml": "<a`, `{"rho": x}`, `{"rho" 1}`, `{rho: 1}`} {
		if w, err := scanAnswer([]byte(body)); err == nil {
			t.Errorf("%q was read as %+v", body, w)
		}
	}
	w, err := scanAnswer([]byte(`{"variants":[{"xml":"}]"}],"key":"ab","nodes_used":3,"rho":2.5e1,"cached":true}`))
	if err != nil || w.key != "ab" || w.nodesUsed != 3 || w.rho != 25 || !w.cached || w.xmlBytes != 0 {
		t.Errorf("nested members leaked into the answer: %+v (%v)", w, err)
	}
}
