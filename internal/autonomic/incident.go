package autonomic

import (
	"context"
	"strconv"
	"strings"
	"time"

	"adept/internal/stats"
)

// Incident correlates one fault's MAPE-K lifecycle — detect → replan →
// patch → recovered — into a single record with measured recovery time.
// The controller opens an incident on the first acting verdict, merges
// further detections while it is open (a crash storm is one incident,
// not one per window), stamps the replan and patch milestones as they
// happen, and closes it on the first post-cooldown window whose
// analysis is clean. MTTR is measured twice: wall-clock (what an
// operator waits) and virtual seconds (window time the target
// reported, which is simulated time under cmd/adeptsoak).
type Incident struct {
	ID int `json:"id"`
	// Reasons accumulates the distinct Analyze findings merged into this
	// incident.
	Reasons     []string  `json:"reasons"`
	DetectCycle int       `json:"detect_cycle"`
	DetectedAt  time.Time `json:"detected_at"`
	// *Virtual fields are offsets on the target's own clock: the sum of
	// observed window durations since the controller started.
	DetectedVirtual float64   `json:"detected_virtual_s"`
	ReplanAt        time.Time `json:"replan_at,omitzero"`
	ReplanVirtual   float64   `json:"replan_virtual_s,omitempty"`
	PatchAt         time.Time `json:"patch_at,omitzero"`
	PatchVirtual    float64   `json:"patch_virtual_s,omitempty"`
	// PatchOps counts patch operations applied for this incident (across
	// merged detections); FullRedeploy marks the root-swap fallback;
	// NoChange marks a verdict that produced no actionable patch (e.g. a
	// sag with no better plan).
	PatchOps     int  `json:"patch_ops,omitempty"`
	FullRedeploy bool `json:"full_redeploy,omitempty"`
	NoChange     bool `json:"no_change,omitempty"`

	RecoveredAt      time.Time `json:"recovered_at,omitzero"`
	RecoveredVirtual float64   `json:"recovered_virtual_s,omitempty"`
	RecoverCycle     int       `json:"recover_cycle,omitempty"`
	Resolved         bool      `json:"resolved"`
	// MTTRSeconds is RecoveredAt-DetectedAt; MTTRVirtualSeconds is the
	// same interval on the virtual clock. Both are zero while open.
	MTTRSeconds        float64 `json:"mttr_s,omitempty"`
	MTTRVirtualSeconds float64 `json:"mttr_virtual_s,omitempty"`
}

// incidentDetect opens a new incident or merges reasons into the open
// one. Caller holds c.mu. Returns the incident ID.
func (c *Controller) incidentDetect(cycle int, reasons []string) int {
	if in := c.openIncident(); in != nil {
		for _, r := range reasons {
			if !containsStr(in.Reasons, r) {
				in.Reasons = append(in.Reasons, r)
			}
		}
		return in.ID
	}
	c.incidents = append(c.incidents, Incident{
		ID:              len(c.incidents) + 1,
		Reasons:         append([]string(nil), reasons...),
		DetectCycle:     cycle,
		DetectedAt:      c.now().UTC(),
		DetectedVirtual: c.virtualNow,
	})
	c.openIdx = len(c.incidents) - 1
	return c.incidents[c.openIdx].ID
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// openIncident returns the open incident, or nil. Caller holds c.mu.
func (c *Controller) openIncident() *Incident {
	if c.openIdx < 0 {
		return nil
	}
	return &c.incidents[c.openIdx]
}

// incidentRecoverLocked closes the open incident at a clean
// post-cooldown window. Caller holds c.mu. Returns the closed incident
// (by value) and whether one was open.
func (c *Controller) incidentRecoverLocked(cycle int) (Incident, bool) {
	in := c.openIncident()
	if in == nil {
		return Incident{}, false
	}
	in.RecoveredAt = c.now().UTC()
	in.RecoveredVirtual = c.virtualNow
	in.RecoverCycle = cycle
	in.Resolved = true
	in.MTTRSeconds = in.RecoveredAt.Sub(in.DetectedAt).Seconds()
	in.MTTRVirtualSeconds = in.RecoveredVirtual - in.DetectedVirtual
	c.openIdx = -1
	return *in, true
}

// emitRecovered journals an incident closure. Called without c.mu.
func (c *Controller) emitRecovered(ctx context.Context, in Incident) {
	c.event(ctx, "recovered", "incident recovered: "+strings.Join(in.Reasons, "; "), map[string]string{
		"incident":       strconv.Itoa(in.ID),
		"cycle":          strconv.Itoa(in.RecoverCycle),
		"detect_cycle":   strconv.Itoa(in.DetectCycle),
		"mttr_s":         strconv.FormatFloat(in.MTTRSeconds, 'f', 3, 64),
		"mttr_virtual_s": strconv.FormatFloat(in.MTTRVirtualSeconds, 'f', 3, 64),
	})
}

// Incidents returns a copy of every incident record, oldest first.
func (c *Controller) Incidents() []Incident {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Incident, len(c.incidents))
	copy(out, c.incidents)
	for i := range out {
		out[i].Reasons = append([]string(nil), out[i].Reasons...)
	}
	return out
}

// MTTRSummary aggregates resolved incidents' recovery times.
type MTTRSummary struct {
	Resolved   int     `json:"resolved"`
	Open       int     `json:"open"`
	MeanSec    float64 `json:"mean_s"`
	MedianSec  float64 `json:"p50_s"`
	P95Sec     float64 `json:"p95_s"`
	MaxSec     float64 `json:"max_s"`
	MeanVirt   float64 `json:"mean_virtual_s"`
	MedianVirt float64 `json:"p50_virtual_s"`
	P95Virt    float64 `json:"p95_virtual_s"`
	MaxVirt    float64 `json:"max_virtual_s"`
}

// SummarizeMTTR computes MTTR percentiles over the resolved incidents
// in the list, on both clocks.
func SummarizeMTTR(incidents []Incident) MTTRSummary {
	var wall, virt []float64
	var open int
	for _, in := range incidents {
		if !in.Resolved {
			open++
			continue
		}
		wall = append(wall, in.MTTRSeconds)
		virt = append(virt, in.MTTRVirtualSeconds)
	}
	s := MTTRSummary{Resolved: len(wall), Open: open}
	if len(wall) == 0 {
		return s
	}
	s.MeanSec = stats.Mean(wall)
	s.MedianSec = stats.Median(wall)
	s.P95Sec = stats.Percentile(wall, 95)
	s.MaxSec = stats.Max(wall)
	s.MeanVirt = stats.Mean(virt)
	s.MedianVirt = stats.Median(virt)
	s.P95Virt = stats.Percentile(virt, 95)
	s.MaxVirt = stats.Max(virt)
	return s
}
