package core

import "math"

// This file holds the accumulators of the planner's candidate scans (the
// best-star and one-agent/one-server snapshot scans): one left-to-right
// pass over the pool's runs folds each candidate's (value, sorted position)
// into a min2, top2 or argMax. Every fold compares strictly, so a tie keeps
// the earliest position and a run's first member stands for all of it.

// min2 tracks the two smallest values of a scan plus the position of the
// first element attaining the minimum (strict <, earliest position on
// ties).
type min2 struct {
	v1, v2 float64
	i1     int
}

func newMin2() min2 { return min2{v1: math.Inf(1), v2: math.Inf(1), i1: -1} }

//adeptvet:hotpath
func (m *min2) fold(v float64, i int) {
	if v < m.v1 {
		m.v2, m.v1, m.i1 = m.v1, v, i
	} else if v < m.v2 {
		m.v2 = v
	}
}

// excl returns the scan minimum with element i excluded: the second
// minimum when i carried the minimum, the minimum otherwise. (When the
// minimum value occurs more than once, v2 equals v1 and both branches
// agree.)
//
//adeptvet:hotpath
func (m min2) excl(i int) float64 {
	if m.i1 == i {
		return m.v2
	}
	return m.v1
}

// top2 tracks the two largest values of a scan with their positions
// (strict >, earliest position on ties): the best and the runner-up.
type top2 struct {
	v1, v2 float64
	i1, i2 int
}

func newTop2() top2 { return top2{i1: -1, i2: -1} }

//adeptvet:hotpath
func (m *top2) fold(v float64, i int) {
	switch {
	case m.i1 < 0 || v > m.v1:
		m.v2, m.i2 = m.v1, m.i1
		m.v1, m.i1 = v, i
	case m.i2 < 0 || v > m.v2:
		m.v2, m.i2 = v, i
	}
}

// argMax tracks the largest value strictly above an initial floor and the
// first position attaining it (strict >, earliest position on ties). i
// stays -1 while nothing beat the floor.
type argMax struct {
	v float64
	i int
}

//adeptvet:hotpath
func (m *argMax) fold(v float64, i int) {
	if v > m.v {
		m.v, m.i = v, i
	}
}
