package nes_test

import (
	"math"
	"slices"
	"testing"

	"adept/internal/model"
	"adept/internal/nes"
)

// recorder is a port that adds up what it is charged and runs the
// activities in order, in no time.
type recorder struct {
	charged float64
	queue   []func()
}

func (r *recorder) Do(dur float64, done func())         { r.charged += dur; r.queue = append(r.queue, done) }
func (r *recorder) DoPriority(dur float64, done func()) { r.Do(dur, done) }

func (r *recorder) drain() {
	for len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		next()
	}
}

// server is a candidate with a fixed estimate.
type server float64

func (s server) Completion() float64 { return float64(s) }

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }

// TestOccupationsAreTheModelsTerms ties what one request charges each
// node's port to §3 of the paper, at the node's own link: an agent of
// degree d is charged 1/AgentThroughput (Eqs. 1, 2 and 5), a server's
// prediction 1/ServerPredictionThroughput (Eq. 14's server term), and a
// service its receive, send and compute (Eq. 15's per-request terms).
func TestOccupationsAreTheModelsTerms(t *testing.T) {
	c := model.DIETDefaults()
	for _, link := range []float64{100, 37, 1000} {
		for _, power := range []float64{120, 400} {
			for _, d := range []int{1, 2, 5, 12} {
				port := &recorder{}
				a := &nes.Agent[int, server]{Port: port, Costs: &c, Power: power, Link: link}
				for i := 0; i < d; i++ {
					a.Children = append(a.Children, i)
				}
				var got []server
				a.Schedule(func(child int, g *nes.Gather[int, server]) {
					g.Reply([]server{server(d - child)})
				}, func(ranked []server) { got = ranked })
				port.drain()
				if want := 1 / model.AgentThroughput(c, link, power, d); !near(port.charged, want) {
					t.Errorf("agent (link %g, power %g, d %d) charged %.17g s, model %.17g s", link, power, d, port.charged, want)
				}
				if len(got) != d || !slices.IsSorted(got) {
					t.Errorf("agent of degree %d answered %v", d, got)
				}
			}

			port := &recorder{}
			nes.Predict(port, &c, power, link, func() {})
			port.drain()
			if want := 1 / model.ServerPredictionThroughput(c, link, power); !near(port.charged, want) {
				t.Errorf("prediction (link %g, power %g) charged %.17g s, model %.17g s", link, power, port.charged, want)
			}

			port = &recorder{}
			compute := 16 / power
			pending := 0
			nes.Serve(port, &c, link, compute, &pending, func() {})
			if pending != 1 {
				t.Errorf("an accepted service request counts %d pending", pending)
			}
			port.drain()
			want := model.ServerReceiveTime(c, link) + model.ServerSendTime(c, link) + compute
			if !near(port.charged, want) || pending != 0 {
				t.Errorf("service (link %g) charged %.17g s with %d pending, model %.17g s", link, port.charged, pending, want)
			}
		}
	}
}

// TestGatherAnswersWithWhatItHas: a child that cannot be reached is not
// waited for, Close answers with the replies in, and a reply after the
// answer is dropped.
func TestGatherAnswersWithWhatItHas(t *testing.T) {
	c := model.DIETDefaults()
	port := &recorder{}
	a := &nes.Agent[int, server]{Port: port, Costs: &c, Power: 400, Link: 100, Children: []int{0, 1, 2}}
	var answers [][]server
	var gather *nes.Gather[int, server]
	gather = a.Schedule(func(child int, g *nes.Gather[int, server]) {
		switch child {
		case 0:
			g.Drop()
		case 1:
			g.Reply([]server{3, 1})
		}
	}, func(ranked []server) { answers = append(answers, ranked) })
	port.drain()
	if len(answers) != 0 {
		t.Fatalf("answered before the last child: %v", answers)
	}
	gather.Close()
	gather.Reply([]server{0})
	gather.Close()
	port.drain()
	if len(answers) != 1 || !slices.Equal(answers[0], []server{1, 3}) {
		t.Fatalf("answers %v, want one: [1 3]", answers)
	}

	childless := &nes.Agent[int, server]{Port: port, Costs: &c, Power: 400, Link: 100}
	answered := false
	childless.Schedule(nil, func(ranked []server) { answered = len(ranked) == 0 })
	port.drain()
	if !answered {
		t.Error("a childless agent never answered")
	}
}

// TestPickIsTheFirstBest: the client takes the smallest estimate, the
// first on a tie; a ranking keeps tied candidates in reply order.
func TestPickIsTheFirstBest(t *testing.T) {
	type tagged struct {
		server
		tag int
	}
	cs := []tagged{{3, 0}, {1, 1}, {2, 2}, {1, 3}}
	if got := nes.Pick(cs); got.tag != 1 {
		t.Errorf("picked %v, want the first 1", got)
	}
	nes.Rank(cs)
	if want := []tagged{{1, 1}, {1, 3}, {2, 2}, {3, 0}}; !slices.Equal(cs, want) {
		t.Errorf("ranked %v, want %v", cs, want)
	}
}
