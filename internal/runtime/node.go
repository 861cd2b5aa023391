package runtime

import (
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adept/internal/blas"
	"adept/internal/model"
)

// maxForwardedCandidates bounds the sorted response list forwarded up the
// tree, mirroring internal/sim.
const maxForwardedCandidates = 8

// schedTimeout is the internal self-message an agent schedules to bound the
// wait for children replies (failure tolerance: a crashed server must not
// wedge the whole platform).
type schedTimeout struct{ ID uint64 }

func init() { gob.Register(schedTimeout{}) }

// Options configures a deployed runtime system.
type Options struct {
	// Costs are the middleware cost parameters (Table 3).
	Costs model.Costs
	// Bandwidth is the virtual link bandwidth in Mb/s.
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

// sleepVirtual blocks for the scaled equivalent of sec virtual seconds.
func (o Options) sleepVirtual(sec float64) {
	if o.TimeScale <= 0 || sec <= 0 {
		return
	}
	time.Sleep(time.Duration(sec * o.TimeScale * float64(time.Second)))
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

// agentElem is one deployed agent: a single goroutine serialising all of
// its receives, computations, and sends (the M(r,s,w) discipline).
type agentElem struct {
	sys      *System
	name     string
	power    float64
	children []string

	pending map[uint64]*replyAgg

	// done is closed when the element loop exits, so reconfiguration can
	// wait for retirement.
	done chan struct{}

	sampleMu    sync.Mutex
	wrepSamples []WrepSample
}

type replyAgg struct {
	requester  string
	want       int
	got        int
	candidates []Candidate
	done       bool
}

func (a *agentElem) run(inbox <-chan Envelope) {
	defer a.sys.wg.Done()
	defer close(a.done)
	o := a.sys.opts
	c := o.Costs
	for env := range inbox {
		switch msg := env.Msg.(type) {
		case Shutdown:
			return
		case Attach:
			a.attach(msg.Child)
		case Detach:
			a.detach(msg.Child)
		case SetPower:
			// Agents have no server-side prediction to refresh; the rated
			// power lives in the system topology for replanning.
		case SchedRequest:
			o.sleepVirtual(c.AgentSreq / o.Bandwidth) // receive request
			o.sleepVirtual(c.AgentWreq / a.power)     // Wreq
			agg := &replyAgg{requester: env.From, want: len(a.children)}
			a.pending[msg.ID] = agg
			for _, child := range a.children {
				o.sleepVirtual(c.AgentSreq / o.Bandwidth) // send to child
				if err := a.sys.send(a.name, child, SchedRequest{ID: msg.ID, ReplyTo: a.name}); err != nil {
					agg.want--
				}
			}
			if agg.want <= 0 {
				a.finish(msg.ID, agg)
				continue
			}
			id := msg.ID
			self := a.name
			time.AfterFunc(o.replyTimeout(), func() {
				_ = a.sys.send(self, self, schedTimeout{ID: id})
			})
		case SchedReply:
			agg, ok := a.pending[msg.ID]
			if !ok || agg.done {
				continue // reply after timeout
			}
			o.sleepVirtual(c.AgentSrep / o.Bandwidth) // receive reply
			agg.candidates = append(agg.candidates, msg.Candidates...)
			agg.got++
			if agg.got >= agg.want {
				a.finish(msg.ID, agg)
			}
		case schedTimeout:
			if agg, ok := a.pending[msg.ID]; ok && !agg.done {
				a.finish(msg.ID, agg)
			}
		default:
			a.sys.noteError(fmt.Errorf("agent %s: unexpected message %T", a.name, env.Msg))
		}
	}
}

// finish sorts and truncates the candidate list (Wrep), sends it to the
// requester, and clears the per-request state.
func (a *agentElem) finish(id uint64, agg *replyAgg) {
	o := a.sys.opts
	c := o.Costs
	agg.done = true
	delete(a.pending, id)
	start := time.Now()
	o.sleepVirtual(c.WrepAgent(len(a.children)) / a.power)
	sort.SliceStable(agg.candidates, func(i, j int) bool {
		return agg.candidates[i].Estimate < agg.candidates[j].Estimate
	})
	if len(agg.candidates) > maxForwardedCandidates {
		agg.candidates = agg.candidates[:maxForwardedCandidates]
	}
	a.recordWrep(time.Since(start))
	o.sleepVirtual(c.AgentSrep / o.Bandwidth)
	_ = a.sys.send(a.name, agg.requester, SchedReply{ID: id, Candidates: agg.candidates})
}

// attach adds a child to the routing list (idempotent). It runs inside the
// agent's own loop, so the children slice is never touched concurrently.
func (a *agentElem) attach(child string) {
	for _, c := range a.children {
		if c == child {
			return
		}
	}
	a.children = append(a.children, child)
}

// detach removes a child from the routing list. Aggregations already in
// flight keep their original fan-out count; a reply from the detached child
// is still accepted, and the scheduling timeout covers the case where it
// never arrives.
func (a *agentElem) detach(child string) {
	for i, c := range a.children {
		if c == child {
			a.children = append(a.children[:i], a.children[i+1:]...)
			return
		}
	}
}

// recordWrep stores one timed reply-treatment sample for calibration.
func (a *agentElem) recordWrep(d time.Duration) {
	a.sampleMu.Lock()
	defer a.sampleMu.Unlock()
	if len(a.wrepSamples) < maxWrepSamples {
		a.wrepSamples = append(a.wrepSamples, WrepSample{
			Agent:   a.name,
			Degree:  len(a.children),
			Seconds: d.Seconds(),
		})
	}
}

// serverElem is one deployed server (SeD).
type serverElem struct {
	sys   *System
	name  string
	power float64 // physical speed (MFlop/s) the node actually delivers

	// ratedBits is the power the server *believes* it has and folds into
	// its scheduling-phase predictions (float64 bits). It starts equal to
	// the physical power and is refreshed by SetPower patches; the gap
	// between rated and effective speed is exactly the drift the autonomic
	// loop closes.
	ratedBits atomic.Uint64

	// bgBits is the background-load factor (float64 bits): the injected
	// slowdown of §5.3's heterogenisation. Effective speed is
	// power / factor. Zero bits mean factor 1 (no load).
	bgBits atomic.Uint64

	pending atomic.Int64 // selected-but-unfinished service requests

	// Served counts completed service requests, for Ni accounting.
	served atomic.Int64

	// svcMu guards the per-server observed service-time accumulation the
	// autonomic monitor consumes.
	svcMu sync.Mutex
	svc   ServiceStat

	// lastActive is the unix-nano timestamp of the last processed message,
	// for the remove-server drain heuristic.
	lastActive atomic.Int64

	// done is closed when the element loop exits.
	done chan struct{}

	// crashed servers ignore all traffic (failure injection).
	crashed atomic.Bool
}

// rated returns the believed power used in predictions.
func (s *serverElem) rated() float64 {
	if bits := s.ratedBits.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return s.power
}

// loadFactor returns the injected background-load slowdown (>= 1 nominally).
func (s *serverElem) loadFactor() float64 {
	if bits := s.bgBits.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return 1
}

func (s *serverElem) run(inbox <-chan Envelope) {
	defer s.sys.wg.Done()
	defer close(s.done)
	o := s.sys.opts
	c := o.Costs
	for env := range inbox {
		s.lastActive.Store(time.Now().UnixNano())
		switch msg := env.Msg.(type) {
		case Shutdown:
			return
		case SetPower:
			if msg.Power > 0 {
				s.ratedBits.Store(math.Float64bits(msg.Power))
			}
		case SchedRequest:
			if s.crashed.Load() {
				continue
			}
			o.sleepVirtual(c.ServerSreq / o.Bandwidth) // Eq. 3
			o.sleepVirtual(c.ServerWpre / s.power)     // prediction
			est := float64(s.pending.Load()+1) * (o.Wapp / s.rated())
			o.sleepVirtual(c.ServerSrep / o.Bandwidth) // Eq. 4
			_ = s.sys.send(s.name, env.From, SchedReply{
				ID:         msg.ID,
				Candidates: []Candidate{{Server: s.name, Estimate: est}},
			})
		case ServiceRequest:
			if s.crashed.Load() {
				continue
			}
			s.pending.Add(1)
			o.sleepVirtual(c.ServerSreq / o.Bandwidth)
			seconds, err := s.execute(msg)
			s.pending.Add(-1)
			o.sleepVirtual(c.ServerSrep / o.Bandwidth)
			reply := ServiceReply{ID: msg.ID, OK: err == nil}
			if err != nil {
				reply.Err = err.Error()
			} else {
				s.served.Add(1)
				s.recordService(seconds)
			}
			_ = s.sys.send(s.name, msg.ReplyTo, reply)
		default:
			s.sys.noteError(fmt.Errorf("server %s: unexpected message %T", s.name, env.Msg))
		}
		s.lastActive.Store(time.Now().UnixNano())
	}
}

// recordService accumulates one observed service execution time (virtual
// seconds), the raw signal the autonomic monitor turns into effective
// per-node power.
func (s *serverElem) recordService(seconds float64) {
	s.svcMu.Lock()
	s.svc.Seconds += seconds
	s.svc.Count++
	s.svcMu.Unlock()
}

// takeService drains the accumulated service-time observations.
func (s *serverElem) takeService() ServiceStat {
	s.svcMu.Lock()
	defer s.svcMu.Unlock()
	st := s.svc
	s.svc = ServiceStat{}
	return st
}

// execute performs the service work and reports its duration in virtual
// seconds: a real DGEMM when configured (measured wall-clock), the
// calibrated sleep otherwise (the modelled time, scaled by the injected
// background load).
func (s *serverElem) execute(msg ServiceRequest) (float64, error) {
	o := s.sys.opts
	if n := msg.N; n > 0 && o.DgemmN > 0 {
		start := time.Now()
		a := blas.RandomMatrix(n, n, int64(msg.ID))
		b := blas.RandomMatrix(n, n, int64(msg.ID)+1)
		out := blas.NewMatrix(n, n)
		err := blas.DgemmBlocked(1, a, b, 0, &out, 0)
		elapsed := time.Since(start).Seconds() * s.loadFactor()
		// Background load on a real-compute server is modelled as the extra
		// wall time the co-scheduled job would steal.
		if extra := elapsed - time.Since(start).Seconds(); extra > 0 {
			time.Sleep(time.Duration(extra * float64(time.Second)))
		}
		// Report in virtual seconds like the calibrated path, so the
		// monitor's effective-power inversion (Wapp / seconds) sees one
		// consistent time base regardless of execution mode.
		if o.TimeScale > 0 {
			elapsed /= o.TimeScale
		}
		return elapsed, err
	}
	virtual := o.Wapp * s.loadFactor() / s.power
	o.sleepVirtual(virtual)
	return virtual, nil
}
