package core

import (
	"math"

	"adept/internal/model"
)

// This file implements the procedures of Table 1 of the paper with their
// original names (Go-cased). Algorithm 1 (heuristic.go) is written in terms
// of these, so the code reads against the paper.

// calcSchPow computes the scheduling power of a node of power w acting as
// an agent with d children: the agent term of Eq. 14.
func calcSchPow(c model.Costs, bandwidth, w float64, d int) float64 {
	return model.AgentThroughput(c, bandwidth, w, d)
}

// calcHierSerPow computes the servicing power provided by the hierarchy
// when the load is equally divided among its servers (Eq. 15, which weights
// each server by its computing power). Under heterogeneous links the
// bandwidth argument is the *minimum* link bandwidth of the server set —
// the link the per-request transfer is charged at (see
// model.ServiceThroughputLinks).
func calcHierSerPow(c model.Costs, bandwidth, wapp float64, serverPowers []float64) float64 {
	return model.ServiceThroughput(c, bandwidth, wapp, serverPowers)
}

// supportedChildren returns the largest number of children a node of power
// w can be given while keeping its scheduling power at or above target
// (the paper's supported_children quantity). The count is capped at max.
// A non-positive target means the node is never the constraint; max is
// returned.
func supportedChildren(c model.Costs, bandwidth, w, target float64, max int) int {
	if max < 0 {
		max = 0
	}
	if target <= 0 || math.IsInf(target, -1) {
		return max
	}
	// calcSchPow is strictly decreasing in d, so binary search works; max
	// is small enough in practice that a linear scan would also do, but the
	// planner calls this in inner loops.
	lo, hi := 0, max // invariant: sched(lo) >= target or lo==0
	if calcSchPow(c, bandwidth, w, 1) < target {
		return 0
	}
	lo = 1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if calcSchPow(c, bandwidth, w, mid) >= target {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Note on the remaining Table 1 procedures:
//   - sort_nodes -> newNodePool / newClassPool (pool.go)
//   - shift_nodes  -> (*hierarchy.Hierarchy).PromoteToAgent
//   - plot_hierarchy -> (*hierarchy.Hierarchy).WriteDOT
//   - write_xml -> (*hierarchy.Hierarchy).WriteXML / (*Plan).XML
