package model_test

import (
	"math"
	"testing"
	"testing/quick"

	"adept/internal/model"
)

const bw = 100.0

func TestDIETDefaultsMatchTable3(t *testing.T) {
	c := model.DIETDefaults()
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"AgentWreq", c.AgentWreq, 1.7e-1},
		{"AgentWfix", c.AgentWfix, 4.0e-3},
		{"AgentWsel", c.AgentWsel, 5.4e-3},
		{"ServerWpre", c.ServerWpre, 6.4e-3},
		{"AgentSreq", c.AgentSreq, 5.3e-3},
		{"AgentSrep", c.AgentSrep, 5.4e-3},
		{"ServerSreq", c.ServerSreq, 5.3e-5},
		{"ServerSrep", c.ServerSrep, 6.4e-5},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s = %g, want %g (Table 3)", tc.name, tc.got, tc.want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestCostsValidateRejectsNaN(t *testing.T) {
	c := model.DIETDefaults()
	c.AgentWreq = math.NaN()
	if err := c.Validate(); err == nil {
		t.Error("expected validation error for NaN cost")
	}
	c = model.DIETDefaults()
	c.ServerWpre = -1
	if err := c.Validate(); err == nil {
		t.Error("expected validation error for negative cost")
	}
}

func TestWrepAgentIsLinearInDegree(t *testing.T) {
	c := model.DIETDefaults()
	for d := 0; d < 50; d++ {
		want := c.AgentWfix + c.AgentWsel*float64(d)
		if got := c.WrepAgent(d); got != want {
			t.Fatalf("WrepAgent(%d) = %g, want %g", d, got, want)
		}
	}
}

func TestCommunicationTimesMatchEquations(t *testing.T) {
	c := model.DIETDefaults()
	d := 5
	// Eq. 1: (Sreq + d·Srep)/B
	want := (c.AgentSreq + float64(d)*c.AgentSrep) / bw
	if got := model.AgentReceiveTime(c, bw, d); got != want {
		t.Errorf("AgentReceiveTime = %g, want %g", got, want)
	}
	// Eq. 2: (d·Sreq + Srep)/B
	want = (float64(d)*c.AgentSreq + c.AgentSrep) / bw
	if got := model.AgentSendTime(c, bw, d); got != want {
		t.Errorf("AgentSendTime = %g, want %g", got, want)
	}
	// Eq. 3 and Eq. 4.
	if got := model.ServerReceiveTime(c, bw); got != c.ServerSreq/bw {
		t.Errorf("ServerReceiveTime = %g", got)
	}
	if got := model.ServerSendTime(c, bw); got != c.ServerSrep/bw {
		t.Errorf("ServerSendTime = %g", got)
	}
}

func TestServerCompTimeSingleServerReducesToSimpleForm(t *testing.T) {
	// Eq. 10 with one server must equal (Wapp + Wpre)/w.
	c := model.DIETDefaults()
	w, wapp := 400.0, 16.0
	want := (wapp + c.ServerWpre) / w
	got := model.ServerCompTime(c, wapp, []float64{w})
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ServerCompTime = %g, want %g", got, want)
	}
}

func TestServerCompTimeEmptyIsInfinite(t *testing.T) {
	if got := model.ServerCompTime(model.DIETDefaults(), 1, nil); !math.IsInf(got, 1) {
		t.Errorf("empty server set comp time = %g, want +Inf", got)
	}
}

func TestHomogeneousServiceThroughputScalesLinearly(t *testing.T) {
	// With Wpre << Wapp, doubling homogeneous servers should roughly double
	// service throughput.
	c := model.DIETDefaults()
	wapp := 16.0
	one := model.ServiceThroughput(c, bw, wapp, []float64{400})
	two := model.ServiceThroughput(c, bw, wapp, []float64{400, 400})
	if ratio := two / one; ratio < 1.95 || ratio > 2.05 {
		t.Errorf("2-server/1-server service ratio = %g, want ≈2", ratio)
	}
}

func TestAgentThroughputDecreasesWithDegree(t *testing.T) {
	c := model.DIETDefaults()
	prev := math.Inf(1)
	for d := 1; d <= 100; d++ {
		cur := model.AgentThroughput(c, bw, 400, d)
		if cur >= prev {
			t.Fatalf("AgentThroughput(%d) = %g >= AgentThroughput(%d) = %g; must be strictly decreasing", d, cur, d-1, prev)
		}
		prev = cur
	}
}

func TestEvaluateBottleneckAttribution(t *testing.T) {
	c := model.DIETDefaults()
	// Tiny requests: agent-limited.
	ev := model.Evaluate(c, bw, 0.002, []model.Agent{{Power: 400, Degree: 2}}, []float64{400, 400})
	if ev.Bottleneck != model.BottleneckAgent {
		t.Errorf("tiny wapp: bottleneck = %v, want agent", ev.Bottleneck)
	}
	if ev.LimitingAgent != 0 {
		t.Errorf("LimitingAgent = %d, want 0", ev.LimitingAgent)
	}
	// Huge requests: service-limited.
	ev = model.Evaluate(c, bw, 2000, []model.Agent{{Power: 400, Degree: 2}}, []float64{400, 400})
	if ev.Bottleneck != model.BottleneckService {
		t.Errorf("huge wapp: bottleneck = %v, want service", ev.Bottleneck)
	}
	if ev.Rho != ev.Service {
		t.Errorf("rho = %g, want service %g", ev.Rho, ev.Service)
	}
	// A pathologically slow server's prediction can cap scheduling.
	ev = model.Evaluate(c, bw, 0.002, []model.Agent{{Power: 1e6, Degree: 2}}, []float64{1e6, 1e-4})
	if ev.Bottleneck != model.BottleneckServerPrediction {
		t.Errorf("slow server: bottleneck = %v, want server-prediction", ev.Bottleneck)
	}
	if ev.LimitingServer != 1 {
		t.Errorf("LimitingServer = %d, want 1", ev.LimitingServer)
	}
}

func TestEvaluateEmptyServers(t *testing.T) {
	ev := model.Evaluate(model.DIETDefaults(), bw, 1, nil, nil)
	if ev.Rho != 0 || ev.Bottleneck != model.BottleneckNone {
		t.Errorf("empty deployment: rho = %g, bottleneck = %v", ev.Rho, ev.Bottleneck)
	}
}

func TestBottleneckString(t *testing.T) {
	cases := map[model.Bottleneck]string{
		model.BottleneckNone:             "none",
		model.BottleneckAgent:            "agent",
		model.BottleneckServerPrediction: "server-prediction",
		model.BottleneckService:          "service",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", b, got, want)
		}
	}
}

// Property: ρ never exceeds either phase's throughput, and both phases are
// positive for sane inputs.
func TestPropertyRhoIsMinOfPhases(t *testing.T) {
	c := model.DIETDefaults()
	f := func(p1, p2, p3 uint16, d uint8, wappSeed uint16) bool {
		w1 := 1 + float64(p1)
		w2 := 1 + float64(p2)
		w3 := 1 + float64(p3)
		deg := 1 + int(d%20)
		wapp := 0.001 + float64(wappSeed)/10
		ev := model.Evaluate(c, bw, wapp, []model.Agent{{Power: w1, Degree: deg}}, []float64{w2, w3})
		return ev.Rho == math.Min(ev.Sched, ev.Service) && ev.Rho > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: model monotonicity — faster nodes never lower throughput.
func TestPropertyFasterNodesNeverHurt(t *testing.T) {
	c := model.DIETDefaults()
	f := func(pw uint16, d uint8, wappSeed uint16, boost uint8) bool {
		w := 10 + float64(pw)
		deg := 1 + int(d%10)
		wapp := 0.01 + float64(wappSeed)/10
		factor := 1 + float64(boost%100)/100
		servers := []float64{w, w / 2}
		base := model.Evaluate(c, bw, wapp, []model.Agent{{Power: w, Degree: deg}}, servers).Rho
		faster := model.Evaluate(c, bw, wapp, []model.Agent{{Power: w * factor, Degree: deg}},
			[]float64{w * factor, w / 2 * factor}).Rho
		return faster >= base-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: more bandwidth never lowers throughput.
func TestPropertyMoreBandwidthNeverHurts(t *testing.T) {
	c := model.DIETDefaults()
	f := func(pw uint16, d uint8, wappSeed uint16, extra uint8) bool {
		w := 10 + float64(pw)
		deg := 1 + int(d%10)
		wapp := 0.01 + float64(wappSeed)/10
		b1 := 10.0
		b2 := b1 + 1 + float64(extra)
		agents := []model.Agent{{Power: w, Degree: deg}}
		servers := []float64{w, w * 2}
		return model.Evaluate(c, b2, wapp, agents, servers).Rho >=
			model.Evaluate(c, b1, wapp, agents, servers).Rho-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adding a server never lowers service throughput (Eq. 15 is
// monotone in the server set).
func TestPropertyMoreServersNeverLowerServiceThroughput(t *testing.T) {
	c := model.DIETDefaults()
	f := func(pw1, pw2 uint16, wappSeed uint16) bool {
		w1 := 1 + float64(pw1)
		w2 := 1 + float64(pw2)
		wapp := 0.01 + float64(wappSeed)/10
		one := model.ServiceThroughput(c, bw, wapp, []float64{w1})
		two := model.ServiceThroughput(c, bw, wapp, []float64{w1, w2})
		return two >= one-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
