// Package runtime is a real, concurrent implementation of the hierarchical
// NES middleware the paper deploys (DIET): agents, servers and clients run
// as goroutines, exchange the two-phase protocol messages of Fig. 1 over a
// pluggable transport (in-process channels or TCP+gob on localhost), and
// the service phase executes real work (a DGEMM kernel or a calibrated
// sleep). It is the stand-in for the paper's DIET 2.0 + GoDIET + Grid'5000
// stack: deployments planned by internal/core are instantiated here and
// their throughput measured with wall-clock clients.
//
// The protocol itself — what each agent and server step does and what it
// occupies at the node's own power and link — is internal/nes, the same
// code the simulator runs. This package supplies its live clock and
// network: each element is one goroutine owning a port that sleeps scaled
// virtual time (the M(r,s,w) discipline) and drains the element's inbox
// into the port's two lanes meanwhile; candidates travel with the estimate
// their server sent. Its crash fault model is silence: a crashed server
// answers nothing, and each agent's reply timeout answers without it.
package runtime

import (
	"encoding/gob"
	"fmt"
)

// SchedRequest opens the scheduling phase for one request. It travels from
// the client to the root agent and down the tree.
type SchedRequest struct {
	// ID identifies the request uniquely per client.
	ID uint64
	// ReplyTo names the element the final reply must reach (the client for
	// the root agent; intermediate hops rewrite it).
	ReplyTo string
}

// Candidate is one server entry of the sorted response list.
type Candidate struct {
	// Server is the server element's name.
	Server string
	// Estimate is the server's expected completion time (seconds, virtual)
	// for one more request at prediction time.
	Estimate float64
}

// SchedReply carries the sorted candidate list back up the tree
// ("response sorted & forwarded up").
type SchedReply struct {
	ID         uint64
	Candidates []Candidate
}

// ServiceRequest asks the selected server to execute the application once.
type ServiceRequest struct {
	ID uint64
	// ReplyTo names the client awaiting the response.
	ReplyTo string
	// N is the DGEMM problem dimension (the service payload descriptor).
	N int
}

// ServiceReply closes the service phase.
type ServiceReply struct {
	ID uint64
	// OK is false when the server failed to execute the request.
	OK bool
	// Err carries the failure description when OK is false.
	Err string
}

// Envelope wraps a message with its sender for transports that cannot
// recover it from the connection.
type Envelope struct {
	From string
	Msg  any
}

func init() {
	// gob needs concrete types registered for the any-valued Envelope.
	gob.Register(SchedRequest{})
	gob.Register(SchedReply{})
	gob.Register(ServiceRequest{})
	gob.Register(ServiceReply{})
}

// String renders an envelope compactly for traces.
func (e Envelope) String() string {
	return fmt.Sprintf("from=%s %T", e.From, e.Msg)
}
