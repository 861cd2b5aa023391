package main

import (
	"math"
	"testing"
)

// The host clock on hand-made slots: a nominal kernel run, then two that
// took twice as long.
func TestHostClockSpan(t *testing.T) {
	c := &hostClock{slots: []slot{{0, refNominal}, {1, 1 + 2*refNominal}, {2, 2 + 2*refNominal}}}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: got %.9f, want %.9f", what, got, want)
		}
	}
	// Between slots 0 and 1 the kernel took 1.5 × nominal on average,
	// between 1 and 2 and after 2 twice nominal.
	v01, v12 := 1/1.5, 0.5
	host, wall := c.span(refNominal, 1)
	near("host time between the first two slots", host, (1-refNominal)*v01)
	near("wall time between the first two slots", wall, 1-refNominal)

	host, wall = c.span(0.5, 1.5)
	near("host time across a slot", host, 0.5*v01+(0.5-2*refNominal)*v12)
	near("wall time across a slot", wall, 1-2*refNominal)

	// Host time stands still inside a slot, and the slot is not op time.
	host, wall = c.span(1+refNominal/2, 1+refNominal)
	near("host time inside a slot", host, 0)
	near("wall time inside a slot", wall, 0)

	// After the last slot its own speed holds.
	host, wall = c.span(3, 4)
	near("host time after the last slot", host, v12)
	near("wall time after the last slot", wall, 1)

	// Slots added later are taken up.
	c.slots = append(c.slots, slot{5, 5 + refNominal})
	host, _ = c.span(3, 4)
	near("host time after a new slot", host, 1/1.5)

	if ms := c.slotMS(0.5, 3); len(ms) != 2 || math.Abs(ms[0]-2e3*refNominal) > 1e-9 {
		t.Errorf("slots in [0.5, 3]: %v", ms)
	}
}

// The real clock: a slot is due only after slotEvery, and the kernel's
// work does not depend on when it runs.
func TestHostClockTicks(t *testing.T) {
	c := newHostClock()
	if len(c.slots) != 1 {
		t.Fatalf("%d slots after start, want 1", len(c.slots))
	}
	c.tickIfDue()
	if len(c.slots) != 1 {
		t.Error("a slot was taken before one was due")
	}
	c.tick()
	if s := c.slots[1]; s.end <= s.start || s.start < c.slots[0].end {
		t.Errorf("slots out of order: %+v", c.slots)
	}
	before := refSink
	refKernel()
	first := refSink - before
	refKernel()
	if refSink-before != 2*first {
		t.Error("the reference kernel's result changed between two calls")
	}
}
