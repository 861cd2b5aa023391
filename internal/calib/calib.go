// Package calib regenerates the middleware cost parameters of Table 3 by
// measurement, replaying the paper's calibration methodology on our
// substituted stack:
//
//   - Message sizes Sreq/Srep: the paper captured all traffic between the
//     agent and server machines with tcpdump and measured message sizes
//     with Ethereal. Here a MeteredTransport gob-encodes every envelope and
//     counts wire bytes while 100 clients' requests flow through a
//     one-agent/one-server deployment.
//   - Wrep(d): the paper timed response processing for star deployments of
//     varying degree and fitted a line (correlation coefficient 0.97). Here
//     the runtime records timed reply-treatment samples per degree and the
//     same least-squares fit recovers slope (Wsel) and intercept (Wfix).
//   - Node power: the paper used a Linpack mini-benchmark; here powers come
//     with the platform description (measured elsewhere or synthetic).
package calib

import (
	"context"
	"fmt"
	"time"

	"adept/internal/deploy"
	"adept/internal/hierarchy"
	"adept/internal/runtime"
	"adept/internal/stats"
)

// bitsPerByte converts metered byte counts to the Mbit units of Table 3.
const bitsPerByte = 8

// MessageSizes holds the measured per-message wire sizes in Mbit.
type MessageSizes struct {
	// SchedRequest and SchedReply are the agent-level Sreq/Srep.
	SchedRequest float64
	SchedReply   float64
	// ServiceRequest and ServiceReply are the server-level Sreq/Srep.
	ServiceRequest float64
	ServiceReply   float64
	// Messages is the total number of captured messages.
	Messages int64
}

// MeasureMessageSizes deploys one agent and one server, runs `clients`
// serial request loops for the given duration, and returns mean wire sizes
// per message type (the tcpdump/Ethereal step).
func MeasureMessageSizes(agentPower, serverPower float64, opts runtime.Options, clients int, dur time.Duration) (MessageSizes, error) {
	h := hierarchy.New("calibration")
	root, err := h.AddRoot("calib-agent", agentPower)
	if err != nil {
		return MessageSizes{}, err
	}
	if _, err := h.AddServer(root, "calib-server", serverPower); err != nil {
		return MessageSizes{}, err
	}
	dep, err := deploy.Launch(h, deploy.Config{Metered: true, Options: opts})
	if err != nil {
		return MessageSizes{}, err
	}
	defer dep.Stop()
	//adeptvet:allow ctxflow calibration harness owns its run lifecycle; duration-bounded, nothing upstream to cancel it
	if _, err := dep.System.RunClients(context.Background(), clients, dur); err != nil {
		return MessageSizes{}, err
	}
	ms := dep.Meter.Stats()
	mean := func(typ string) float64 {
		st, ok := ms[typ]
		if !ok || st.Count == 0 {
			return 0
		}
		bytesPerMsg := float64(st.Bytes) / float64(st.Count)
		return bytesPerMsg * bitsPerByte / 1e6 // Mbit
	}
	return MessageSizes{
		SchedRequest:   mean("runtime.SchedRequest"),
		SchedReply:     mean("runtime.SchedReply"),
		ServiceRequest: mean("runtime.ServiceRequest"),
		ServiceReply:   mean("runtime.ServiceReply"),
		Messages:       dep.Meter.TotalMessages(),
	}, nil
}

// WrepCalibration is the measured reply-treatment cost model.
type WrepCalibration struct {
	// Fit is the least-squares line of reply-treatment seconds against
	// degree; Fit.R plays the role of the paper's 0.97 correlation.
	Fit stats.Fit
	// WfixMFlop and WselMFlop are the fitted cost parameters converted back
	// to MFlop via the agent's power and the configured time scale.
	WfixMFlop float64
	WselMFlop float64
	// Samples is the number of timed observations used.
	Samples int
}

// MeasureWrep deploys stars of each given degree, drives load through them,
// collects the runtime's timed reply-treatment samples, and fits the linear
// Wrep(d) model.
func MeasureWrep(agentPower, serverPower float64, opts runtime.Options, degrees []int, perDegree time.Duration) (WrepCalibration, error) {
	if len(degrees) < 2 {
		return WrepCalibration{}, fmt.Errorf("calib: need at least two degrees, got %d", len(degrees))
	}
	var xs, ys []float64
	total := 0
	for _, d := range degrees {
		if d < 1 {
			return WrepCalibration{}, fmt.Errorf("calib: invalid degree %d", d)
		}
		h := hierarchy.New(fmt.Sprintf("calib-star-%d", d))
		root, err := h.AddRoot("calib-agent", agentPower)
		if err != nil {
			return WrepCalibration{}, err
		}
		for i := 0; i < d; i++ {
			if _, err := h.AddServer(root, fmt.Sprintf("calib-server-%d", i), serverPower); err != nil {
				return WrepCalibration{}, err
			}
		}
		dep, err := deploy.Launch(h, deploy.Config{Options: opts})
		if err != nil {
			return WrepCalibration{}, err
		}
		//adeptvet:allow ctxflow calibration harness owns its run lifecycle; duration-bounded, nothing upstream to cancel it
		if _, err := dep.System.RunClients(context.Background(), 2, perDegree); err != nil {
			dep.Stop()
			return WrepCalibration{}, err
		}
		samples := dep.System.WrepSamples()
		dep.Stop()
		for _, s := range samples {
			xs = append(xs, float64(s.Degree))
			ys = append(ys, s.Seconds)
			total++
		}
	}
	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		return WrepCalibration{}, fmt.Errorf("calib: %w", err)
	}
	out := WrepCalibration{Fit: fit, Samples: total}
	// Convert timed seconds back to MFlop: seconds = MFlop/power · scale.
	scale := opts.TimeScale
	if scale > 0 {
		out.WfixMFlop = fit.Intercept * agentPower / scale
		out.WselMFlop = fit.Slope * agentPower / scale
	}
	return out, nil
}
