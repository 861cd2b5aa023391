package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"adept/internal/model"
)

// TestEvaluatorMatchesNaiveUnderRandomOps drives the incremental and the
// naive evaluator through identical randomized mutation sequences
// (attach, promote, re-back, backing change) and checks after each step
// that their node tables are equal field for field, stamps included — the
// growth driver reads whichever one it plans through — and that every
// query agrees to 1e-9, including the min-excluding what-ifs that
// exercise the lazy-heap invalidation paths. Every node draws a random
// link bandwidth (zero = default included), so the prediction-throughput
// and min-bandwidth heaps are stressed under heterogeneous links, not
// just re-derived from powers.
func TestEvaluatorMatchesNaiveUnderRandomOps(t *testing.T) {
	c := model.DIETDefaults()
	const bw, wapp = 100.0, 59.582
	rng := rand.New(rand.NewSource(17))

	close := func(a, b float64) bool {
		scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
		return math.Abs(a-b) <= 1e-9*scale
	}

	for trial := 0; trial < 50; trial++ {
		inc := NewEvaluator(c, bw, wapp)
		nai := NewNaiveEvaluator(c, bw, wapp)
		type nodeInfo struct {
			id     int
			parent int
			agent  bool
		}
		power := func() float64 { return 50 + rng.Float64()*2000 }
		// Link palette: default (0), the explicit default, a slow WAN hop,
		// a fast LAN. Drawing zeros keeps the uniform path covered too.
		link := func() float64 { return []float64{0, bw, 2, 1000}[rng.Intn(4)] }
		rootPow := power()
		rootBW := link()
		inc.AddAgent(0, -1, rootPow, rootBW)
		nai.AddAgent(0, -1, rootPow, rootBW)
		nodes := []nodeInfo{{id: 0, parent: -1, agent: true}}
		sameTable := func(step int) {
			t.Helper()
			if a, b := inc.table().nodes, nai.table().nodes; !slices.Equal(a, b) {
				t.Fatalf("trial %d step %d: node tables diverged:\n incremental %+v\n naive       %+v", trial, step, a, b)
			}
		}
		sameTable(-1)

		steps := 5 + rng.Intn(60)
		for s := 0; s < steps; s++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(nodes) < 2: // attach a server under a random agent
				var agents []int
				for _, n := range nodes {
					if n.agent {
						agents = append(agents, n.id)
					}
				}
				parent := agents[rng.Intn(len(agents))]
				id := len(nodes)
				w, l := power(), link()
				inc.AddServer(id, parent, w, l)
				nai.AddServer(id, parent, w, l)
				nodes = append(nodes, nodeInfo{id: id, parent: parent})
			case op < 7: // promote a random server
				var servers []int
				for i, n := range nodes {
					if !n.agent {
						servers = append(servers, i)
					}
				}
				if len(servers) == 0 {
					continue
				}
				i := servers[rng.Intn(len(servers))]
				inc.Promote(nodes[i].id)
				nai.Promote(nodes[i].id)
				nodes[i].agent = true
			default: // re-back a random node with a new power and link
				i := rng.Intn(len(nodes))
				w, l := power(), link()
				inc.SetBacking(nodes[i].id, w, l)
				nai.SetBacking(nodes[i].id, w, l)
			}

			sameTable(s)
			is, iv := inc.Eval()
			ns, nv := nai.Eval()
			if !close(is, ns) || !close(iv, nv) {
				t.Fatalf("trial %d step %d: Eval diverged: (%.12g,%.12g) vs (%.12g,%.12g)", trial, s, is, iv, ns, nv)
			}
			// What-ifs against every agent/server exercise peekExcluding.
			probe, probeBW := power(), link()
			for _, n := range nodes {
				if n.agent {
					if a, b := inc.RhoAfterAttach(n.id, probe, probeBW), nai.RhoAfterAttach(n.id, probe, probeBW); !close(a, b) {
						t.Fatalf("trial %d step %d: RhoAfterAttach(%d) %.12g vs %.12g", trial, s, n.id, a, b)
					}
				} else {
					if a, b := inc.RhoAfterDrop(n.id, n.parent), nai.RhoAfterDrop(n.id, n.parent); !close(a, b) {
						t.Fatalf("trial %d step %d: RhoAfterDrop(%d) %.12g vs %.12g", trial, s, n.id, a, b)
					}
				}
			}
			// One agent/server swap what-if per step.
			var agents, servers []int
			for _, n := range nodes {
				if n.agent {
					agents = append(agents, n.id)
				} else {
					servers = append(servers, n.id)
				}
			}
			if len(servers) > 0 {
				a := agents[rng.Intn(len(agents))]
				sv := servers[rng.Intn(len(servers))]
				if x, y := inc.RhoAfterSwap(a, sv), nai.RhoAfterSwap(a, sv); !close(x, y) {
					t.Fatalf("trial %d step %d: RhoAfterSwap(%d,%d) %.12g vs %.12g", trial, s, a, sv, x, y)
				}
			}
		}
	}
}

// TestEvaluatorEmptyAndReset covers the degenerate states.
func TestEvaluatorEmptyAndReset(t *testing.T) {
	c := model.DIETDefaults()
	ev := NewEvaluator(c, 100, 59.582)
	if s, v := ev.Eval(); s != 0 || v != 0 {
		t.Errorf("empty evaluator: (%g,%g), want (0,0)", s, v)
	}
	ev.AddAgent(0, -1, 400, 0)
	if s, v := ev.Eval(); s != 0 || v != 0 {
		t.Errorf("serverless evaluator: (%g,%g), want (0,0) to match model.Evaluate", s, v)
	}
	ev.AddServer(1, 0, 300, 0)
	s1, v1 := ev.Eval()
	if s1 <= 0 || v1 <= 0 {
		t.Fatalf("one-server evaluator: (%g,%g)", s1, v1)
	}
	ev.Reset()
	if s, v := ev.Eval(); s != 0 || v != 0 {
		t.Errorf("reset evaluator: (%g,%g), want (0,0)", s, v)
	}
	// Reuse after reset must reproduce the same numbers.
	ev.AddAgent(0, -1, 400, 0)
	ev.AddServer(1, 0, 300, 0)
	if s2, v2 := ev.Eval(); s2 != s1 || v2 != v1 {
		t.Errorf("reused evaluator diverged: (%g,%g) vs (%g,%g)", s2, v2, s1, v1)
	}
}

// TestServiceFromAggregates pins the aggregate Eq. 15 form to the model's
// slice-based computation.
func TestServiceFromAggregates(t *testing.T) {
	c := model.DIETDefaults()
	powers := []float64{400, 250, 133.7, 980.2}
	sum := 0.0
	for _, w := range powers {
		sum += w
	}
	got := serviceFromAggregates(c, 100, 59.582, len(powers), sum)
	want := model.ServiceThroughput(c, 100, 59.582, powers)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("serviceFromAggregates %.12g, model %.12g", got, want)
	}
	if serviceFromAggregates(c, 100, 59.582, 0, 0) != 0 {
		t.Error("zero servers must yield zero service")
	}
}
