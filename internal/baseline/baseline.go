// Package baseline implements the comparison deployment planners of the
// paper's evaluation: the intuitive star and balanced hierarchies of §5.3,
// the optimal homogeneous complete-spanning-d-ary-tree algorithm of
// reference [10] (Table 4's "Homo. Deg." column), an exhaustive optimal
// search for small pools (Table 4's "Opt. Deg." column), and a seeded
// random planner used by property tests.
package baseline

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
)

// Star deploys the most powerful node as the lone agent and every other
// pool node as a direct server child — the paper's first intuitive
// comparison deployment.
type Star struct{}

// Name implements core.Planner.
func (*Star) Name() string { return "star" }

// PlanContext implements core.Planner. Building a star is linear in the
// pool, so the context is only checked once up front.
func (s *Star) PlanContext(ctx context.Context, req core.Request) (*core.Plan, error) {
	if err := core.CheckContext(ctx, s.Name()); err != nil {
		return nil, err
	}
	req, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	cols := req.Columns
	order := cols.RankDesc(cols.Powers) // by power, ties by name
	h := hierarchy.New(cols.Name + "-star")
	root := cols.Node(int(order[0]))
	rootID, err := h.AddRoot(root.Name, root.Power, root.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	for _, i := range order[1:] {
		nd := cols.Node(int(i))
		if _, err := h.AddServer(rootID, nd.Name, nd.Power, nd.LinkBandwidth); err != nil {
			return nil, err
		}
	}
	return core.Finalize(s.Name(), req, h)
}

// Balanced deploys the two-level balanced hierarchy of §5.3: one top agent
// connected to Degree agents, each connected to roughly equal numbers of
// servers (the paper used degree 14 on 200 nodes: 1 + 14 agents + 13×14+3
// servers). The planner is deliberately heterogeneity-naive — nodes are
// taken in platform order, exactly how an administrator would wire an
// "intuitive" deployment without measuring node powers.
type Balanced struct {
	// Degree is the top agent's number of child agents. Zero picks
	// round(sqrt(n)) to keep the two levels balanced.
	Degree int
}

// Name implements core.Planner.
func (*Balanced) Name() string { return "balanced" }

// PlanContext implements core.Planner. Like Star, construction is linear,
// so the context is checked once up front.
func (b *Balanced) PlanContext(ctx context.Context, req core.Request) (*core.Plan, error) {
	if err := core.CheckContext(ctx, b.Name()); err != nil {
		return nil, err
	}
	req, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	cols := req.Columns
	n := cols.Len()
	deg := b.Degree
	if deg <= 0 {
		deg = int(math.Round(math.Sqrt(float64(n))))
	}
	if deg < 1 {
		deg = 1
	}
	// Need 1 root + deg agents + at least 2 servers per agent.
	for deg > 1 && 1+deg+2*deg > n {
		deg--
	}
	if 1+deg+2*deg > n {
		// Pool too small for two levels: degenerate to a star.
		return (&Star{}).PlanContext(ctx, req)
	}
	h := hierarchy.New(cols.Name + "-balanced")
	root := cols.Node(0)
	rootID, err := h.AddRoot(root.Name, root.Power, root.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	agentIDs := make([]int, deg)
	for i := range agentIDs {
		nd := cols.Node(1 + i)
		id, err := h.AddAgent(rootID, nd.Name, nd.Power, nd.LinkBandwidth)
		if err != nil {
			return nil, err
		}
		agentIDs[i] = id
	}
	for i := 1 + deg; i < n; i++ {
		nd := cols.Node(i)
		parent := agentIDs[(i-1-deg)%deg]
		if _, err := h.AddServer(parent, nd.Name, nd.Power, nd.LinkBandwidth); err != nil {
			return nil, err
		}
	}
	return core.Finalize(b.Name(), req, h)
}

// OptimalDAry implements the homogeneous-cluster algorithm of reference
// [10] (Chouhan, Dail, Caron, Vivien, IJHPCA 2006): on a homogeneous
// platform an optimal deployment is a complete spanning d-ary tree; the
// algorithm searches over the degree d and the number of agent levels,
// evaluates each candidate with the throughput model, and returns the best
// (fewest nodes on ties). On heterogeneous platforms it still runs —
// treating the pool in decreasing-power order with agents drawn first — but
// optimality only holds for homogeneous pools.
//
// Each (degree, levels) candidate is scored in O(1) from power prefix sums
// instead of being materialised: agents of one level form contiguous runs
// of the sorted pool with a common degree, and agent throughput is monotone
// in power, so the weakest (last) agent of each run carries the level's
// scheduling minimum; the service term needs only the server count and
// power sum. Only the winning candidate is built as a hierarchy.
//
// Precondition: the [10] optimality argument — and the O(1) prefix-sum
// scoring above — assumes *uniform link bandwidths*: with per-node links
// the weakest agent of a run is no longer the one with the least power.
// On platforms with heterogeneous links the planner does not fail; it
// falls back to scoring every candidate at the pool's minimum link
// bandwidth (a conservative uniform projection) and the returned plan is
// re-evaluated honestly with the true per-node links by core.Finalize.
// Treat its result on such platforms as a baseline, never an optimum.
type OptimalDAry struct{}

// Name implements core.Planner.
func (*OptimalDAry) Name() string { return "optimal-dary" }

// PlanContext implements core.Planner; the context is polled once per
// candidate degree, bounding cancellation latency to one (degree, levels)
// sweep.
func (o *OptimalDAry) PlanContext(ctx context.Context, req core.Request) (*core.Plan, error) {
	req, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	cols := req.Columns
	// Candidates are scored at the pool's slowest link: on uniform links
	// that is B itself, otherwise it is the conservative fallback of the
	// type comment.
	bw, _ := cols.LinkRange()
	c, wapp := req.Costs, req.Wapp
	order := cols.RankDesc(cols.Powers)
	n := len(order)
	// power(k) is the power of the k-th most powerful node.
	power := func(k int) float64 { return cols.Powers[order[k]] }

	prefix := make([]float64, n+1)
	for k := range n {
		prefix[k+1] = prefix[k] + power(k)
	}
	// numTable[k] is the Eq. 10 numerator 1 + k·Wpre/Wapp accumulated
	// sequentially, matching model.ServerCompTime's summation.
	numTable := make([]float64, n+1)
	numTable[0] = 1
	for k := 1; k <= n; k++ {
		numTable[k] = numTable[k-1] + c.ServerWpre/wapp
	}
	srxstx := model.ServerReceiveTime(c, bw) + model.ServerSendTime(c, bw)

	// evalCand scores one candidate without building it: agents are the
	// ranks [0, agents) (upper levels all degree d, bottom level round-robin
	// ceil/floor), servers are the ranks [agents, agents+servers).
	evalCand := func(d, levels, agents, bottom, servers int) float64 {
		sched := math.Inf(1)
		if upper := agents - bottom; upper > 0 {
			if t := model.AgentThroughput(c, bw, power(upper-1), d); t < sched {
				sched = t
			}
		}
		ceilCnt := servers % bottom
		floorDeg := servers / bottom
		if ceilCnt > 0 {
			if t := model.AgentThroughput(c, bw, power(agents-bottom+ceilCnt-1), floorDeg+1); t < sched {
				sched = t
			}
		}
		if floorDeg > 0 {
			if t := model.AgentThroughput(c, bw, power(agents-1), floorDeg); t < sched {
				sched = t
			}
		}
		// Weakest server carries the prediction minimum (monotone in power).
		if t := model.ServerPredictionThroughput(c, bw, power(agents+servers-1)); t < sched {
			sched = t
		}
		den := (prefix[agents+servers] - prefix[agents]) / wapp
		service := 1 / (srxstx + numTable[servers]/den)
		return math.Min(sched, service)
	}

	bestCapped := math.Inf(-1)
	bestUsed := 0
	bestD, bestLevels, bestServers := 0, 0, 0
	for d := 1; d <= n-1; d++ {
		if err := core.CheckContext(ctx, o.Name()); err != nil {
			return nil, err
		}
		for levels := 1; ; levels++ {
			agents := agentCount(d, levels)
			if agents >= n {
				break
			}
			// Bottom-level agents can hold at most bottom*d servers.
			bottom := bottomAgents(d, levels)
			maxServers := bottom * d
			servers := n - agents
			if servers > maxServers {
				servers = maxServers
			}
			if servers < 1 {
				break
			}
			// Non-root agents need at least two children for the final
			// shape invariant; with servers spread round-robin over bottom
			// agents this requires servers >= 2*bottom (levels > 1) —
			// except the degenerate chain d == 1, which can never satisfy
			// it beyond a single level.
			if levels > 1 && (d < 2 || servers < 2*bottom) {
				continue
			}
			capped := req.Demand.Cap(evalCand(d, levels, agents, bottom, servers))
			used := agents + servers
			if capped > bestCapped || (capped == bestCapped && used < bestUsed) {
				bestCapped, bestUsed = capped, used
				bestD, bestLevels, bestServers = d, levels, servers
			}
		}
	}
	if bestD == 0 {
		return nil, fmt.Errorf("baseline: optimal-dary found no feasible deployment for %d nodes", n)
	}
	h, err := buildDAry(cols, order, bestD, bestLevels, bestServers)
	if err != nil {
		return nil, fmt.Errorf("baseline: optimal-dary rebuild: %w", err)
	}
	return core.Finalize(o.Name(), req, h)
}

// agentCount returns 1 + d + d² + … for `levels` agent levels.
func agentCount(d, levels int) int {
	if d == 1 {
		return levels
	}
	total, pow := 0, 1
	for l := 0; l < levels; l++ {
		total += pow
		pow *= d
	}
	return total
}

// bottomAgents returns the number of agents on the deepest agent level.
func bottomAgents(d, levels int) int {
	if d == 1 {
		return 1
	}
	pow := 1
	for l := 1; l < levels; l++ {
		pow *= d
	}
	return pow
}

// buildDAry constructs the complete d-ary agent tree with `levels` agent
// levels and `servers` servers spread round-robin under the bottom agents,
// taking the pool's nodes in the given order.
func buildDAry(cols *platform.Columns, order []int32, d, levels, servers int) (*hierarchy.Hierarchy, error) {
	h := hierarchy.New(fmt.Sprintf("%s-dary-d%d-l%d", cols.Name, d, levels))
	take := func() platform.Node { n := cols.Node(int(order[0])); order = order[1:]; return n }

	rootNode := take()
	rootID, err := h.AddRoot(rootNode.Name, rootNode.Power, rootNode.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	level := []int{rootID}
	for l := 1; l < levels; l++ {
		var nextLevel []int
		for _, parent := range level {
			for k := 0; k < d; k++ {
				nd := take()
				id, err := h.AddAgent(parent, nd.Name, nd.Power, nd.LinkBandwidth)
				if err != nil {
					return nil, err
				}
				nextLevel = append(nextLevel, id)
			}
		}
		level = nextLevel
	}
	for s := 0; s < servers; s++ {
		parent := level[s%len(level)]
		nd := take()
		if _, err := h.AddServer(parent, nd.Name, nd.Power, nd.LinkBandwidth); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Random builds a valid random deployment; property tests use it as a
// stress generator and as a sanity floor the real planners must beat.
type Random struct {
	// Seed selects the shuffle and every later draw.
	Seed int64
}

// Name implements core.Planner.
func (*Random) Name() string { return "random" }

// PlanContext implements core.Planner; randomized construction is linear,
// so the context is checked once up front.
func (r *Random) PlanContext(ctx context.Context, req core.Request) (*core.Plan, error) {
	if err := core.CheckContext(ctx, r.Name()); err != nil {
		return nil, err
	}
	req, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	cols := req.Columns
	rng := rand.New(rand.NewSource(r.Seed))
	n := cols.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	node := func(k int) platform.Node { return cols.Node(order[k]) }
	h := hierarchy.New(cols.Name + "-random")
	root := node(0)
	rootID, err := h.AddRoot(root.Name, root.Power, root.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	agents := []int{rootID}
	idx := 1
	for idx < n {
		parent := agents[rng.Intn(len(agents))]
		// Promote to a new agent level occasionally, but only when enough
		// nodes remain to give the new agent two server children.
		if n-idx >= 3 && rng.Float64() < 0.2 {
			nd := node(idx)
			idx++
			id, err := h.AddAgent(parent, nd.Name, nd.Power, nd.LinkBandwidth)
			if err != nil {
				return nil, err
			}
			for k := 0; k < 2 && idx < n; k++ {
				nd := node(idx)
				if _, err := h.AddServer(id, nd.Name, nd.Power, nd.LinkBandwidth); err != nil {
					return nil, err
				}
				idx++
			}
			agents = append(agents, id)
			continue
		}
		nd := node(idx)
		if _, err := h.AddServer(parent, nd.Name, nd.Power, nd.LinkBandwidth); err != nil {
			return nil, err
		}
		idx++
	}
	return core.Finalize(r.Name(), req, h)
}
