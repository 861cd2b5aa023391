package core

// NewHeuristicNodeSpace returns the planner pinned to node granularity:
// the class collapse never engages. The differential battery and the
// golden digests use it as the reference side.
func NewHeuristicNodeSpace() *Heuristic { return &Heuristic{mode: poolNodesOnly} }

// NewHeuristicClassSpace returns the planner pinned to class granularity
// regardless of pool size or compressibility. The differential battery uses
// it as the subject side.
func NewHeuristicClassSpace() *Heuristic { return &Heuristic{mode: poolClassesOnly} }
