package baseline

import (
	"context"
	"fmt"
	"math"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
)

// MaxExhaustiveNodes bounds the pool size Exhaustive accepts; the search is
// Θ(n·nⁿ) and becomes impractical beyond this.
const MaxExhaustiveNodes = 8

// parentUnused marks a pool node left out of the deployment in the parent
// vector encoding used by the exhaustive search.
const parentUnused = -2

// Exhaustive enumerates every valid deployment over the pool (including
// deployments that leave nodes unused) and returns the one with the highest
// demand-capped throughput, breaking ties towards fewer nodes. It is the
// ground-truth optimum for the small heterogeneous pools used in tests and
// benchmarks.
//
// The enumeration shares one scratch arena across all candidate vectors and
// maintains child counts incrementally along the recursion, so evaluating a
// leaf allocates nothing — the dominant cost of the pre-refactor version
// was rebuilding per-vector children/agent/server slices on the heap.
type Exhaustive struct{}

// Name implements core.Planner.
func (*Exhaustive) Name() string { return "exhaustive" }

// Plan implements core.Planner.
//
//adeptvet:allow ctxflow context-free convenience wrapper; callers that want cancellation use PlanContext
func (e *Exhaustive) Plan(req core.Request) (*core.Plan, error) {
	return e.PlanContext(context.Background(), req)
}

// ctxPollInterval is how many candidate parent vectors the exhaustive
// search evaluates between context polls: frequent enough to cancel a
// Θ(n·nⁿ) enumeration promptly, rare enough to keep the poll off the
// hot path.
const ctxPollInterval = 4096

// exhaustiveScratch is the reusable per-search arena.
type exhaustiveScratch struct {
	parent   []int // parentUnused, -1 (root), or parent index
	childCnt []int // maintained incrementally by the recursion
	stack    []int
	seen     []bool
}

// PlanContext implements core.Planner; the enumeration aborts within
// ctxPollInterval candidate evaluations of the context firing.
func (e *Exhaustive) PlanContext(ctx context.Context, req core.Request) (*core.Plan, error) {
	req, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	n := req.Columns.Len()
	if n > MaxExhaustiveNodes {
		return nil, fmt.Errorf("baseline: exhaustive search limited to %d nodes, got %d", MaxExhaustiveNodes, n)
	}
	plat := req.NodePlatform()

	sc := &exhaustiveScratch{
		parent:   make([]int, n),
		childCnt: make([]int, n),
		stack:    make([]int, 0, n),
		seen:     make([]bool, n),
	}
	bestCapped := -1.0
	bestUsed := 0
	var bestVec []int
	var ctxErr error
	sincePoll := 0

	check := func() {
		sincePoll++
		if sincePoll >= ctxPollInterval {
			sincePoll = 0
			ctxErr = core.CheckContext(ctx, e.Name())
		}
		rho, used, ok := evalParentVector(req, plat, sc)
		if !ok {
			return
		}
		capped := req.Demand.Cap(rho)
		if capped > bestCapped || (capped == bestCapped && used < bestUsed) {
			bestCapped, bestUsed = capped, used
			bestVec = append(bestVec[:0], sc.parent...)
		}
	}

	parent := sc.parent
	var rec func(i, rootIdx int)
	rec = func(i, rootIdx int) {
		if ctxErr != nil {
			return
		}
		if i == n {
			check()
			return
		}
		if i == rootIdx {
			parent[i] = -1
			rec(i+1, rootIdx)
			return
		}
		parent[i] = parentUnused
		rec(i+1, rootIdx)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			parent[i] = j
			sc.childCnt[j]++
			rec(i+1, rootIdx)
			sc.childCnt[j]--
		}
	}
	for rootIdx := 0; rootIdx < n && ctxErr == nil; rootIdx++ {
		rec(0, rootIdx)
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	if bestVec == nil {
		return nil, fmt.Errorf("baseline: exhaustive search found no valid deployment")
	}

	h := buildFromParentVector(plat, bestVec)
	if h == nil {
		return nil, fmt.Errorf("baseline: internal error rebuilding best deployment")
	}
	if err := h.Validate(hierarchy.Final); err != nil {
		return nil, fmt.Errorf("baseline: exhaustive produced invalid deployment: %w", err)
	}
	return core.Finalize(e.Name(), req, h)
}

// evalParentVector validates and evaluates the deployment encoded by the
// scratch's parent vector without materialising a hierarchy or allocating.
// ok is false when the vector does not encode a valid deployment.
func evalParentVector(req core.Request, plat *platform.Platform, sc *exhaustiveScratch) (rho float64, used int, ok bool) {
	parent, childCnt := sc.parent, sc.childCnt
	rootIdx := -1
	for i, p := range parent {
		switch {
		case p == parentUnused:
			continue
		case p == -1:
			rootIdx = i
			used++
		default:
			if parent[p] == parentUnused {
				return 0, 0, false // child of an unused node
			}
			used++
		}
	}
	if rootIdx == -1 || used < 2 || childCnt[rootIdx] < 1 {
		return 0, 0, false
	}
	// Non-root internal nodes need at least two children (paper invariant).
	for i, p := range parent {
		if p == parentUnused || i == rootIdx {
			continue
		}
		if childCnt[i] == 1 {
			return 0, 0, false
		}
	}
	// Reachability from root must cover all used nodes (detects cycles).
	seen := sc.seen
	for i := range seen {
		seen[i] = false
	}
	stack := append(sc.stack[:0], rootIdx)
	reach := 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] {
			return 0, 0, false
		}
		seen[i] = true
		reach++
		for j, p := range parent {
			if p == i {
				stack = append(stack, j)
			}
		}
	}
	sc.stack = stack[:0]
	if reach != used {
		return 0, 0, false
	}

	// One allocation-free model pass: agents contribute their scheduling
	// throughput (at their own link), servers their prediction throughput
	// and the Eq. 10 num/den accumulators (summed in index order, exactly
	// as model.ServerCompTime would over the server power slice); the
	// service transfer is charged at the slowest server link, matching
	// model.ServiceThroughputLinks.
	c, bw, wapp := req.Costs, plat.Bandwidth, req.Wapp
	nodes := plat.Nodes
	sched := math.Inf(1)
	num, den := 1.0, 0.0
	minBW := math.Inf(1)
	nServers := 0
	for i, p := range parent {
		if p == parentUnused {
			continue
		}
		w := nodes[i].Power
		nbw := nodes[i].Link(bw)
		if childCnt[i] > 0 {
			if t := model.AgentThroughput(c, nbw, w, childCnt[i]); t < sched {
				sched = t
			}
		} else {
			nServers++
			num += c.ServerWpre / wapp
			den += w / wapp
			if nbw < minBW {
				minBW = nbw
			}
			if t := model.ServerPredictionThroughput(c, nbw, w); t < sched {
				sched = t
			}
		}
	}
	if nServers == 0 {
		return 0, 0, false
	}
	service := 1 / (model.ServerReceiveTime(c, minBW) + model.ServerSendTime(c, minBW) + num/den)
	return math.Min(sched, service), used, true
}

// buildFromParentVector materialises the hierarchy encoded by a (validated)
// parent vector.
func buildFromParentVector(plat *platform.Platform, parent []int) *hierarchy.Hierarchy {
	n := len(parent)
	children := make([][]int, n)
	rootIdx := -1
	for i, p := range parent {
		switch {
		case p == parentUnused:
		case p == -1:
			rootIdx = i
		default:
			children[p] = append(children[p], i)
		}
	}
	nodes := plat.Nodes
	h := hierarchy.New(plat.Name + "-exhaustive")
	rootID, err := h.AddRoot(nodes[rootIdx].Name, nodes[rootIdx].Power, nodes[rootIdx].LinkBandwidth)
	if err != nil {
		return nil
	}
	var rec func(idx, id int) bool
	rec = func(idx, id int) bool {
		for _, c := range children[idx] {
			var cid int
			var err error
			if len(children[c]) > 0 {
				cid, err = h.AddAgent(id, nodes[c].Name, nodes[c].Power, nodes[c].LinkBandwidth)
			} else {
				cid, err = h.AddServer(id, nodes[c].Name, nodes[c].Power, nodes[c].LinkBandwidth)
			}
			if err != nil {
				return false
			}
			if !rec(c, cid) {
				return false
			}
		}
		return true
	}
	if !rec(rootIdx, rootID) {
		return nil
	}
	return h
}
