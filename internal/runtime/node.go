package runtime

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adept/internal/blas"
	"adept/internal/model"
	"adept/internal/nes"
)

// Options configures a deployed runtime system.
type Options struct {
	// Costs are the middleware cost parameters (Table 3).
	Costs model.Costs
	// Bandwidth is the default virtual link bandwidth in Mb/s; a node
	// planned with its own link (hierarchy.Node.Bandwidth) sends and
	// receives at that instead.
	Bandwidth float64
	// Wapp is the service cost in MFlop.
	Wapp float64
	// TimeScale converts virtual seconds of modelled cost into real
	// wall-clock sleep: realSeconds = virtualSeconds * TimeScale.
	// Zero disables modelled delays entirely (protocol-only mode).
	TimeScale float64
	// DgemmN, when positive, makes servers execute a real blocked DGEMM of
	// that dimension for each service request instead of the modelled
	// sleep.
	DgemmN int
	// ReplyTimeout bounds (in real time) how long an agent waits for its
	// children's scheduling replies before answering with the candidates
	// collected so far. Zero means a generous default.
	ReplyTimeout time.Duration
}

func (o Options) replyTimeout() time.Duration {
	if o.ReplyTimeout > 0 {
		return o.ReplyTimeout
	}
	return 5 * time.Second
}

// port is a live element's single port (nes.Port): one goroutine runs all
// of the element's protocol steps. It waits out each activity's scaled
// virtual time, priority lane first, and meanwhile hands the element every
// message that arrives on its inbox and runs the calls other goroutines
// post; the steps these start queue more activities. Element state is
// touched on this goroutine only.
//
// The port keeps its own schedule: an activity starts when the one before
// was due to end, or now if that has passed, so a late wake-up is made up
// by the activities after it. It sleeps a wait down to its last
// resolution and polls the rest, yielding to other goroutines: an idle Go
// runtime wakes timers to the millisecond, and at small time scales nearly
// every occupation is shorter than that. Polling costs CPU for as long as
// a short occupation lasts.
type port struct {
	scale float64
	lanes [2][]activity // priority, normal
	began time.Time     // when the running activity started
	end   time.Time     // when it is due to end

	calls chan func()
	done  chan struct{} // closed when run returns

	// queued counts activities queued or running and last stamps the
	// port's last event (unix nanos): the drain of a retiring server
	// reads both from outside.
	queued atomic.Int64
	last   atomic.Int64
}

// resolution is the end of every wait the port polls rather than sleeps.
const resolution = time.Millisecond

// ready is always ready to receive from: the due channel of a polled wait.
var ready = func() chan time.Time { c := make(chan time.Time); close(c); return c }()

type activity struct {
	dur  float64
	done func()
}

func newPort(scale float64) *port {
	return &port{scale: scale, calls: make(chan func()), done: make(chan struct{})}
}

// Do implements nes.Port.
func (p *port) Do(dur float64, done func()) { p.push(1, dur, done) }

// DoPriority implements nes.Port.
func (p *port) DoPriority(dur float64, done func()) { p.push(0, dur, done) }

func (p *port) push(lane int, dur float64, done func()) {
	p.queued.Add(1)
	p.lanes[lane] = append(p.lanes[lane], activity{dur: dur, done: done})
}

// run serves the element until its inbox closes.
func (p *port) run(inbox <-chan Envelope, handle func(Envelope)) {
	defer close(p.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var cur *activity
	for {
		if cur == nil {
			if cur = p.next(); cur != nil {
				if p.began = time.Now(); p.end.After(p.began) {
					p.began = p.end
				}
				p.end = p.began.Add(time.Duration(cur.dur * p.scale * float64(time.Second)))
			}
		}
		var due <-chan time.Time
		if cur != nil {
			if wait := time.Until(p.end); wait < resolution {
				due = ready
			} else {
				timer.Reset(wait - resolution)
				due = timer.C
			}
		}
		select {
		case env, ok := <-inbox:
			if !ok {
				return
			}
			handle(env)
		case call := <-p.calls:
			call()
		case <-due:
			if time.Now().Before(p.end) {
				goruntime.Gosched()
				continue
			}
			a := cur
			cur = nil
			a.done()
			p.queued.Add(-1)
		}
		p.last.Store(time.Now().UnixNano())
	}
}

// next takes the activity to run next, priority lane first.
func (p *port) next() *activity {
	for i, q := range p.lanes {
		if len(q) > 0 {
			p.lanes[i] = q[1:]
			return &q[0]
		}
	}
	return nil
}

// post runs call on the port's goroutine, ahead of anything the port does
// next; it returns at once if the element has exited.
func (p *port) post(call func()) {
	select {
	case p.calls <- call:
	case <-p.done:
	}
}

// WrepSample is one timed reply-treatment observation: the calibration
// harness fits these against degree to recover Wrep(d) = Wfix + Wsel·d,
// replaying the paper's Table 3 methodology.
type WrepSample struct {
	Agent   string
	Degree  int
	Seconds float64
}

// maxWrepSamples bounds the per-agent sample memory.
const maxWrepSamples = 4096

// agentElem is one deployed agent: the protocol's agent on a live port,
// reaching its children by name and listing candidates as they travel.
type agentElem struct {
	nes.Agent[string, Candidate]
	sys  *System
	port *port

	// pending holds the gathers in flight by request ID.
	pending map[uint64]*nes.Gather[string, Candidate]

	sampleMu    sync.Mutex
	wrepSamples []WrepSample
}

func (a *agentElem) handle(env Envelope) {
	switch msg := env.Msg.(type) {
	case SchedRequest:
		a.schedule(env.From, msg.ID)
	case SchedReply:
		if g, ok := a.pending[msg.ID]; ok {
			g.Reply(msg.Candidates)
		}
	default:
		a.sys.noteError(fmt.Errorf("agent %s: unexpected message %T", a.Name, env.Msg))
	}
}

// schedule runs one scheduling request through the agent. A child whose
// request cannot be sent is not waited for, and the reply timeout answers
// with the candidates gathered so far — a crashed server must not wedge
// the platform. The timer stops when the gather completes.
func (a *agentElem) schedule(requester string, id uint64) {
	var timeout *time.Timer
	g := a.Schedule(func(child string, g *nes.Gather[string, Candidate]) {
		if a.sys.send(a.Name, child, SchedRequest{ID: id, ReplyTo: a.Name}) != nil {
			g.Drop()
		}
	}, func(ranked []Candidate) {
		timeout.Stop()
		delete(a.pending, id)
		a.recordWrep(time.Since(a.port.began).Seconds() - a.ReplySend()*a.port.scale)
		_ = a.sys.send(a.Name, requester, SchedReply{ID: id, Candidates: ranked})
	})
	a.pending[id] = g
	timeout = time.AfterFunc(a.sys.opts.replyTimeout(), func() { a.port.post(g.Close) })
}

// recordWrep stores one timed reply treatment for calibration: the ranking
// occupation as the wall clock saw it, less its modelled reply send.
func (a *agentElem) recordWrep(seconds float64) {
	a.sampleMu.Lock()
	defer a.sampleMu.Unlock()
	if len(a.wrepSamples) < maxWrepSamples {
		a.wrepSamples = append(a.wrepSamples, WrepSample{Agent: a.Name, Degree: len(a.Children), Seconds: seconds})
	}
}

// attach adds a child to the routing list (idempotent).
func (a *agentElem) attach(child string) {
	if !slices.Contains(a.Children, child) {
		a.Children = append(a.Children, child)
	}
}

// detach removes a child from the routing list. Gathers already in flight
// keep their fan-out count; a reply from the detached child is still
// accepted, and the reply timeout covers the case where it never arrives.
func (a *agentElem) detach(child string) {
	a.Children = slices.DeleteFunc(a.Children, func(c string) bool { return c == child })
}

// serverElem is one deployed server (SeD). Its power, link, rated power,
// background load and pending count belong to its port's goroutine.
type serverElem struct {
	sys   *System
	name  string
	port  *port
	power float64 // physical speed (MFlop/s) the node actually delivers
	link  float64

	// rated is the power the server *believes* it has and folds into its
	// predictions. It starts equal to the physical power and is refreshed
	// by set-power ops; the gap between rated and effective speed is
	// exactly the drift the autonomic loop closes.
	rated float64

	// bg is the background-load factor, the injected slowdown of §5.3's
	// heterogenisation: effective speed is power / bg.
	bg float64

	pending int // service requests accepted and not finished

	// crashed servers are silent (failure injection).
	crashed atomic.Bool

	// served counts completed service requests, for Ni accounting.
	served atomic.Int64

	// svcMu guards the per-server observed service-time accumulation the
	// autonomic monitor consumes.
	svcMu sync.Mutex
	svc   ServiceStat
}

// Completion makes a listed candidate comparable by the estimate its
// server sent.
func (c Candidate) Completion() float64 { return c.Estimate }

func (s *serverElem) handle(env Envelope) {
	if s.crashed.Load() {
		return
	}
	o := &s.sys.opts
	switch msg := env.Msg.(type) {
	case SchedRequest:
		nes.Predict(s.port, &o.Costs, s.power, s.link, func() {
			if s.crashed.Load() {
				return
			}
			_ = s.sys.send(s.name, env.From, SchedReply{
				ID:         msg.ID,
				Candidates: []Candidate{{Server: s.name, Estimate: nes.Estimate(s.pending, o.Wapp, s.rated)}},
			})
		})
	case ServiceRequest:
		// A real DGEMM runs as the occupation ends, in place of the
		// modelled computation.
		dgemm := msg.N > 0 && o.DgemmN > 0
		compute := o.Wapp * s.bg / s.power
		if dgemm {
			compute = 0
		}
		nes.Serve(s.port, &o.Costs, s.link, compute, &s.pending, func() {
			var err error
			if dgemm {
				compute, err = s.dgemm(msg)
			}
			if s.crashed.Load() {
				return
			}
			reply := ServiceReply{ID: msg.ID, OK: err == nil}
			if err != nil {
				reply.Err = err.Error()
			} else {
				s.served.Add(1)
				s.svcMu.Lock()
				s.svc.Seconds += compute
				s.svc.Count++
				s.svcMu.Unlock()
			}
			_ = s.sys.send(s.name, msg.ReplyTo, reply)
		})
	default:
		s.sys.noteError(fmt.Errorf("server %s: unexpected message %T", s.name, env.Msg))
	}
}

// takeService drains the accumulated service-time observations.
func (s *serverElem) takeService() ServiceStat {
	s.svcMu.Lock()
	defer s.svcMu.Unlock()
	st := s.svc
	s.svc = ServiceStat{}
	return st
}

// dgemm performs a real DGEMM of the request's dimension and reports its
// duration in virtual seconds, like the modelled computation, so the
// monitor's effective-power inversion (Wapp / seconds) sees one time base.
// Background load is the extra wall time a co-scheduled job would steal.
func (s *serverElem) dgemm(msg ServiceRequest) (float64, error) {
	n := msg.N
	start := time.Now()
	a := blas.RandomMatrix(n, n, int64(msg.ID))
	b := blas.RandomMatrix(n, n, int64(msg.ID)+1)
	out := blas.NewMatrix(n, n)
	err := blas.DgemmBlocked(1, a, b, 0, &out, 0)
	elapsed := time.Since(start).Seconds() * s.bg
	if extra := elapsed - time.Since(start).Seconds(); extra > 0 {
		time.Sleep(time.Duration(extra * float64(time.Second)))
	}
	if scale := s.sys.opts.TimeScale; scale > 0 {
		elapsed /= scale
	}
	return elapsed, err
}
