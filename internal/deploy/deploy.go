// Package deploy is the GoDIET analog: it consumes the deployment XML the
// planner emits (the write_xml hand-off of Algorithm 1), instantiates the
// middleware on a chosen transport, and launches it. Where GoDIET ran
// ssh/scp against Grid'5000, this package starts the goroutine runtime of
// internal/runtime — the same role in our substituted stack.
package deploy

import (
	"fmt"
	"io"

	"adept/internal/hierarchy"
	"adept/internal/runtime"
)

// TransportKind selects how deployed elements communicate.
type TransportKind string

const (
	// TransportChan wires elements with in-process channels.
	TransportChan TransportKind = "chan"
	// TransportTCP wires elements over loopback TCP with gob encoding.
	TransportTCP TransportKind = "tcp"
)

// Config bundles everything needed to launch a deployment.
type Config struct {
	// Transport selects the wire; empty defaults to TransportChan.
	Transport TransportKind
	// Metered wraps the transport with traffic accounting (calibration).
	Metered bool
	// Options are the runtime's middleware options.
	Options runtime.Options
}

// Deployment is a launched middleware platform plus its handles.
type Deployment struct {
	// System is the running middleware.
	System *runtime.System
	// Hierarchy is the deployed tree.
	Hierarchy *hierarchy.Hierarchy
	// Meter is non-nil when Config.Metered was set.
	Meter *runtime.MeteredTransport
}

// Stop shuts the platform down.
func (d *Deployment) Stop() {
	d.System.Stop()
}

// ParseTransport resolves a transport's wire name — "chan", which the empty
// name also selects, or "tcp" — to its kind and a constructor; every call of
// the constructor builds a fresh transport (the autonomic loop's full
// redeploy needs a second one). Nothing outside this function knows the
// transports by name.
func ParseTransport(name string) (TransportKind, func() runtime.Transport, error) {
	switch TransportKind(name) {
	case TransportChan, "":
		return TransportChan, func() runtime.Transport { return runtime.NewChanTransport() }, nil
	case TransportTCP:
		return TransportTCP, func() runtime.Transport { return runtime.NewTCPTransport() }, nil
	}
	return "", nil, fmt.Errorf("deploy: unknown transport %q (have chan, tcp)", name)
}

// Launch deploys an in-memory hierarchy.
func Launch(h *hierarchy.Hierarchy, cfg Config) (*Deployment, error) {
	_, newTransport, err := ParseTransport(string(cfg.Transport))
	if err != nil {
		return nil, err
	}
	tr := newTransport()
	var meter *runtime.MeteredTransport
	if cfg.Metered {
		meter = runtime.NewMeteredTransport(tr)
		tr = meter
	}
	sys, err := runtime.Deploy(h, tr, cfg.Options)
	if err != nil {
		return nil, err
	}
	return &Deployment{System: sys, Hierarchy: h, Meter: meter}, nil
}

// LaunchXML deploys from a GoDIET-style XML stream.
func LaunchXML(r io.Reader, cfg Config) (*Deployment, error) {
	h, err := hierarchy.ParseXML(r)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return Launch(h, cfg)
}

// LaunchXMLFile deploys from a deployment XML file on disk.
func LaunchXMLFile(path string, cfg Config) (*Deployment, error) {
	h, err := hierarchy.LoadXML(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return Launch(h, cfg)
}
