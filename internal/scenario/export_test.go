package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"adept/internal/platform"
)

// Quantize is the power snap as a post-pass over a drawn power column, as
// generation ran it before it classed pools while snapping them: the
// oracle of the snap in Spec.layOut. It snaps to PowerLevels evenly spaced
// levels over the column's own [min, max] range, and is a no-op when the
// knob is unset or the column constant.
func (s Spec) Quantize(out []float64) {
	if s.PowerLevels < 1 || len(out) == 0 {
		return
	}
	lo, hi := out[0], out[0]
	for _, w := range out {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if lo == hi {
		return
	}
	if s.PowerLevels == 1 {
		for i := range out {
			out[i] = lo
		}
		return
	}
	step := (hi - lo) / float64(s.PowerLevels-1)
	for i := range out {
		out[i] = lo + math.Round((out[i]-lo)/step)*step
	}
}

// ReferenceColumns draws the spec's columns as generation did before it
// classed pools: the raw draw, Quantize, a link column laid out from the
// positional definitions (i mod Clusters, tierOf) and the node-by-node
// validation, in the same words. Its columns carry no classes, so
// Columns.Classes hashes every node's spec into them.
func (s Spec) ReferenceColumns() (*platform.Columns, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	powers, _, _ := s.powers(rand.New(rand.NewSource(s.Seed)), nil)
	s.Quantize(powers)
	c := &platform.Columns{Name: s.Name, Bandwidth: s.Bandwidth, Powers: powers}
	switch s.Family {
	case ClusterGrid:
		c.Links = make([]float64, s.N)
		for i := range c.Links {
			if i%s.Clusters != 0 {
				c.Links[i] = s.InterBandwidth
			}
		}
	case FatTree:
		c.Links = make([]float64, s.N)
		for i := range c.Links {
			if t := tierOf(s, i); t > 0 {
				c.Links[i] = s.Bandwidth / float64(int(1)<<t)
			}
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: generated invalid platform: %w", err)
	}
	return c, nil
}
