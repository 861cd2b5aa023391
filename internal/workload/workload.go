// Package workload models the applications and client loads of the paper's
// evaluation. All experiments use DGEMM (dense matrix multiply, level-3
// BLAS): the service cost of one request on an n×n problem is 2n³ flops.
// Clients are closed-loop: each runs one request at a time in a continual
// loop, and load is ramped by adding one client per second until throughput
// stops improving (§5.1).
package workload

import (
	"fmt"
)

// DGEMM describes a square matrix-multiplication service.
type DGEMM struct {
	// N is the matrix dimension.
	N int
}

// Flops returns the flop count of one C = A·B multiplication: 2n³
// (n³ multiplications and n³ additions).
func (d DGEMM) Flops() float64 {
	n := float64(d.N)
	return 2 * n * n * n
}

// MFlop returns the service cost Wapp in MFlop, the unit used by the
// performance model and Table 3.
func (d DGEMM) MFlop() float64 {
	return d.Flops() / 1e6
}

// String implements fmt.Stringer.
func (d DGEMM) String() string {
	return fmt.Sprintf("DGEMM %dx%d", d.N, d.N)
}

// Demand expresses the client demand the planner must satisfy, in
// requests/second. The heuristic stops growing the hierarchy once the
// demand is met (min_ser_cv in Algorithm 1). Zero or negative means
// "unbounded": build for maximum throughput.
type Demand float64

// Unbounded is the no-demand-cap value.
const Unbounded Demand = 0

// Bounded reports whether the demand caps planning.
func (d Demand) Bounded() bool { return d > 0 }

// Cap returns min(rho, demand) for a bounded demand, rho otherwise.
func (d Demand) Cap(rho float64) float64 {
	if d.Bounded() && float64(d) < rho {
		return float64(d)
	}
	return rho
}
