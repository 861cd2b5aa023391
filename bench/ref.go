package main

import (
	"crypto/sha256"
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// The sandbox this benchmark runs in shares its host: the same binary on
// the same inputs takes 40 % longer from one minute to the next, and the
// slow spells come and go within tens of milliseconds (README, "The host
// clock"). A wall-clock time therefore measures the neighbours as much as
// the program. So the client interleaves its ops with a fixed piece of
// work of its own — the reference kernel — and every time an end-to-end
// metric reports is read off a clock that the kernel's own duration
// rescales: a stretch of wall time counts for as much as the host got done
// in it. The unit is still the second: one on a host that runs the kernel
// in exactly refNominal.

const (
	// refNominal is what the reference kernel takes on this sandbox in a
	// quiet spell, so that on a quiet host the host clock and the wall
	// clock agree. It only fixes the unit: a comparison between two
	// commits does not depend on it.
	refNominal = 2.2e-3 // seconds
	// slotEvery is how long the client goes on sending ops before it runs
	// the kernel again: a slot costs ~2 ms, so the kernel takes about a
	// tenth of a run, and no op is further than 20 ms (or its own length)
	// from the two slots that price it.
	slotEvery = 20e-3 // seconds
	// refNodes sizes the kernel.
	refNodes = 1500
)

// refNode has the shape of a platform node on the wire.
type refNode struct {
	Name  string  `json:"name"`
	Power float64 `json:"power"`
	Link  float64 `json:"link_bandwidth_mbps,omitempty"`
}

var refSink int

// refKernel is a plan request in miniature, made of what the daemon's own
// requests are made of: it builds a platform's worth of named nodes,
// encodes them, decodes them, hashes the bytes and sorts the nodes by
// power — allocation, encoding/json, SHA-256 and a comparison sort. The
// work is the same on every call and belongs to the benchmark, not to the
// program: no change to the daemon can make it faster.
func refKernel() {
	nodes := make([]refNode, refNodes)
	x := uint64(99)
	for i := range nodes {
		x = x*6364136223846793005 + 1442695040888963407
		nodes[i] = refNode{Name: "node-" + strconv.Itoa(i), Power: float64(x>>40) / 1000, Link: float64(i%7) * 100}
	}
	b, err := json.Marshal(nodes)
	var back []refNode
	if err == nil {
		err = json.Unmarshal(b, &back)
	}
	if err != nil {
		panic("bench: reference kernel: " + err.Error()) // fixed input: a bug here
	}
	h := sha256.Sum256(b)
	sort.Slice(back, func(i, j int) bool { return back[i].Power < back[j].Power })
	refSink += int(h[0]) + len(back)
}

// slot is one timed run of the reference kernel, in seconds since epoch.
type slot struct{ start, end float64 }

// hostClock turns wall time into host time. Between two slots the host's
// speed is refNominal over the mean of the two kernel durations; host time
// advances at that speed outside the slots and stands still inside them
// (a slot is the benchmark's own work, not the program's).
type hostClock struct {
	slots []slot
	// speed[j] holds from slot j's end to slot j+1's start; cum[j] is the
	// host time, and inSlots[j] the wall time spent in slots, at slot j's
	// end. Rebuilt by seal when slots were added.
	speed, cum, inSlots []float64
}

// newHostClock warms the kernel up and takes the first slot: every
// interval measured later starts after it.
func newHostClock() *hostClock {
	c := &hostClock{}
	for i := 0; i < 3; i++ {
		refKernel()
	}
	c.tick()
	return c
}

func sinceEpoch() float64 { return time.Since(epoch).Seconds() }

// tick runs the kernel once and records the slot.
func (c *hostClock) tick() {
	s := slot{start: sinceEpoch()}
	refKernel()
	s.end = sinceEpoch()
	c.slots = append(c.slots, s)
}

// tickIfDue takes a slot when slotEvery has passed since the last one.
func (c *hostClock) tickIfDue() {
	if sinceEpoch()-c.slots[len(c.slots)-1].end >= slotEvery {
		c.tick()
	}
}

func (c *hostClock) seal() {
	n := len(c.slots)
	if len(c.cum) == n {
		return
	}
	c.speed, c.cum, c.inSlots = make([]float64, n), make([]float64, n), make([]float64, n)
	dur := func(j int) float64 { return max(c.slots[j].end-c.slots[j].start, 1e-9) }
	for j := range c.slots {
		if j+1 < n {
			c.speed[j] = refNominal / ((dur(j) + dur(j+1)) / 2)
		} else {
			c.speed[j] = refNominal / dur(j)
		}
	}
	c.inSlots[0] = dur(0)
	for j := 1; j < n; j++ {
		c.cum[j] = c.cum[j-1] + (c.slots[j].start-c.slots[j-1].end)*c.speed[j-1]
		c.inSlots[j] = c.inSlots[j-1] + dur(j)
	}
}

// at reads both clocks at wall time t (seconds since epoch, not before the
// first slot's end): the host time, and the wall time spent in slots.
func (c *hostClock) at(t float64) (host, inSlots float64) {
	c.seal()
	// j is the last slot that ended at or before t.
	j := max(0, sort.Search(len(c.slots), func(k int) bool { return c.slots[k].end > t })-1)
	if j+1 < len(c.slots) && t >= c.slots[j+1].start {
		return c.cum[j+1], c.inSlots[j] + t - c.slots[j+1].start // inside slot j+1
	}
	return c.cum[j] + max(0, t-c.slots[j].end)*c.speed[j], c.inSlots[j]
}

// span measures the wall interval [from, to]: the host time it holds, and
// its wall time outside slots. Their ratio is the host's mean speed.
func (c *hostClock) span(from, to float64) (host, wall float64) {
	h0, s0 := c.at(from)
	h1, s1 := c.at(to)
	return h1 - h0, (to - from) - (s1 - s0)
}

// slotMS lists the kernel durations of the slots taken in [from, to], in ms.
func (c *hostClock) slotMS(from, to float64) []float64 {
	var ms []float64
	for _, s := range c.slots {
		if s.start >= from && s.end <= to {
			ms = append(ms, (s.end-s.start)*1e3)
		}
	}
	return ms
}
