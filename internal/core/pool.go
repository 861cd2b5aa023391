package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"adept/internal/model"
	"adept/internal/platform"
)

// This file holds the one pool representation Algorithm 1 plans over: the
// sort_nodes order (Steps 1–2) stored run-length encoded. A run is a block
// of consecutive sorted positions whose nodes share one (power, link) spec;
// every planner quantity that depends only on a node's spec — scheduling
// and servicing powers, prediction throughputs — is computed once per run.
//
// The pool's granularity is a property of its constructor, not of the
// planner: newNodePool emits one run per node, newClassPool one run per
// spec class of a ClassIndex, so a million-node catalogue fleet is a few
// dozen runs and every spec scan is Θ(runs). Scans address candidates by
// sorted *position* (a run's first member is at start, its second at
// start+1), which is what makes the min2/top2/argMax folds of fold.go
// — and therefore every decision — independent of the granularity: the
// differential battery (classdiff_test.go) and the recorded digests
// (golden_test.go) hold both constructors to byte-identical plans.
//
// At either granularity the pool is a permutation of int32 indices into
// the request's columns, and an index becomes a platform.Node — a name —
// only when at or peek hands that node to the planner. Wherever sort_nodes
// breaks a tie by name (the ranking of nodes that share a sort key, the
// order members of a run are spent in, the interleaving of classes that
// share a sort key) the pool asks Columns.NameLess, never the index: over
// generated names the two part ways at 10 000 nodes, where "pool-10000"
// sorts between "pool-1000" and "pool-1001" (columndiff_test.go plans
// across that edge against the materialised platform).

// run is a maximal block of the sorted pool sharing one spec.
type run struct {
	power float64
	link  float64 // raw per-node override, as platform.Node carries it (0 = platform default)
	count int
	start int // sorted position of the run's first member
}

// bw resolves the run's effective bandwidth against the platform default,
// mirroring platform.Node.Link.
//
//adeptvet:hotpath
func (r *run) bw(def float64) float64 {
	if r.link > 0 {
		return r.link
	}
	return def
}

// lead returns the end of the run's candidate positions: only a run's first
// two members can ever win a best/runner-up selection (later members tie
// with them and every fold keeps the earliest position), so candidate scans
// visit positions [start, lead).
//
//adeptvet:hotpath
func (r *run) lead() int { return r.start + min(r.count, 2) }

// sortedPool is the node pool in sort_nodes order: position 0 is the root
// agent, positions 1..n-1 the non-root pool the growth loop consumes.
type sortedPool struct {
	runs []run
	n    int
	cols *platform.Columns
	// order holds the pool's column indices run by run: run j's members are
	// order[start:start+count], spent in ascending name order by at and
	// peek whatever order they are stored in.
	order []int32
	// nodes is the materialised prefix of the sorted expansion: a plan that
	// deploys a few hundred of a million nodes never names the rest.
	nodes []platform.Node
	// loaded counts the runs whose members have been loaded into heap, the
	// heap spending the current run's members in ascending name order (see
	// heapInit).
	loaded int
	heap   []int32
}

// newNodePool is sort_nodes (Steps 1–2) at node granularity: it ranks
// every node of cols by decreasing scheduling power computed with n-1
// prospective children — the heuristic does not yet know which node will
// be the agent, so each is ranked as if it had to schedule for the whole
// remaining pool — at the node's *own* link bandwidth, so a powerful node
// behind a slow WAN uplink sorts below a modest node on the fast local LAN.
// Ties break by name. It emits one run per node.
func newNodePool(c model.Costs, cols *platform.Columns) *sortedPool {
	n := cols.Len()
	d := max(n-1, 1)
	keys := make([]float64, n)
	order := make([]int32, n)
	for i := range order {
		power, link := cols.Spec(i)
		r := run{power: power, link: link}
		keys[i] = calcSchPow(c, r.bw(cols.Bandwidth), power, d)
		order[i] = int32(i)
	}
	// Names are unique in a valid pool, so (key, name) orders it totally and
	// an unstable sort returns the one order a stable sort would.
	slices.SortFunc(order, func(a, b int32) int {
		if o := cmp.Compare(keys[b], keys[a]); o != 0 {
			return o
		}
		return nameCmp(cols, a, b)
	})
	runs := make([]run, n)
	for pos, i := range order {
		power, link := cols.Spec(int(i))
		runs[pos] = run{power: power, link: link, count: 1, start: pos}
	}
	return &sortedPool{runs: runs, n: n, cols: cols, order: order}
}

// newClassPool ranks the classes of ix by the sort_nodes key (scheduling
// power at d = n-1 children, each class at its own link), descending, and
// emits one run per class. Classes that share a sort key bit for bit (one
// SKU listed both with the default link and with an explicit override equal
// to it) cannot be laid out as blocks: sort_nodes interleaves their members
// by name, so they are emitted as single-member runs in name order —
// exactly that interleaving, whatever order the tied classes arrive in.
func newClassPool(c model.Costs, ix *ClassIndex) *sortedPool {
	cols := ix.cols
	n := ix.NumNodes()
	d := max(n-1, 1)
	nc := ix.NumClasses()
	keys := make([]float64, nc)
	rank := make([]int, nc)
	for i := range rank {
		cl := ix.Class(i)
		keys[i] = calcSchPow(c, cl.link(cols.Bandwidth), cl.Power, d)
		rank[i] = i
	}
	sort.Slice(rank, func(a, b int) bool { return keys[rank[a]] > keys[rank[b]] })
	sp := &sortedPool{n: n, runs: make([]run, 0, nc), cols: cols, order: ix.deal(rank)}
	pos := 0
	for j := 0; j < nc; {
		k := j + 1
		for k < nc && keys[rank[k]] == keys[rank[j]] {
			k++
		}
		if k == j+1 {
			cl := ix.Class(rank[j])
			sp.runs = append(sp.runs, run{power: cl.Power, link: cl.LinkBandwidth, count: int(cl.count), start: pos})
			pos += int(cl.count)
		} else {
			// The tied classes' blocks are adjacent in the layout, so their
			// interleaving is their joint block in name order.
			end := pos
			for _, ci := range rank[j:k] {
				end += int(ix.Class(ci).count)
			}
			block := sp.order[pos:end]
			slices.SortFunc(block, func(a, b int32) int { return nameCmp(cols, a, b) })
			for _, m := range block {
				power, link := cols.Spec(int(m))
				sp.runs = append(sp.runs, run{power: power, link: link, count: 1, start: pos})
				pos++
			}
		}
		j = k
	}
	return sp
}

// nameCmp orders two nodes of cols by name, for slices.SortFunc. Names are
// unique, so only a node compares equal to itself.
func nameCmp(cols *platform.Columns, a, b int32) int {
	switch {
	case a == b:
		return 0
	case cols.NameLess(int(a), int(b)):
		return -1
	}
	return 1
}

// members returns run j's column indices, unordered.
func (sp *sortedPool) members(j int) []int32 {
	r := &sp.runs[j]
	return sp.order[r.start : r.start+r.count]
}

// at returns the node at sorted position i, materialising the expansion up
// to it: runs in order, each run's members in ascending name order.
func (sp *sortedPool) at(i int) platform.Node {
	for i >= len(sp.nodes) {
		for len(sp.heap) == 0 {
			sp.heap = append(sp.heap[:0], sp.members(sp.loaded)...)
			sp.heapInit()
			sp.loaded++
		}
		sp.nodes = append(sp.nodes, sp.cols.Node(int(sp.heapPop())))
	}
	return sp.nodes[i]
}

// peek returns the node at a candidate position (a run's first or second
// member) without materialising the expansion before it: the pair snapshot
// may pick a node deep in the pool, and naming a million nodes to reach it
// would cost more than the plan.
func (sp *sortedPool) peek(pos int) platform.Node {
	if pos < len(sp.nodes) {
		return sp.nodes[pos]
	}
	j := sort.Search(len(sp.runs), func(j int) bool { return sp.runs[j].start > pos }) - 1
	first, second := int32(-1), int32(-1)
	for _, m := range sp.members(j) {
		switch {
		case first < 0 || sp.cols.NameLess(int(m), int(first)):
			first, second = m, first
		case second < 0 || sp.cols.NameLess(int(m), int(second)):
			second = m
		}
	}
	if pos > sp.runs[j].start {
		first = second
	}
	return sp.cols.Node(int(first))
}

// uniformLinks is Platform.HasUniformLinks computed over runs.
func (sp *sortedPool) uniformLinks(def float64) bool {
	for j := range sp.runs {
		if l := sp.runs[j].link; l > 0 && l != def {
			return false
		}
	}
	return true
}

// poolPowers returns the power vector of the non-root pool (positions
// 1..n-1) in sorted order, so downstream sequential accumulations see the
// same terms in the same order at either granularity.
func (sp *sortedPool) poolPowers() []float64 {
	out := make([]float64, sp.n-1)
	for j := range sp.runs {
		r := &sp.runs[j]
		for pos := max(r.start, 1); pos < r.start+r.count; pos++ {
			out[pos-1] = r.power
		}
	}
	return out
}

// poolMin returns the minimum of f(power, effective link) over the specs
// of the non-root pool.
func (sp *sortedPool) poolMin(def float64, f func(power, bw float64) float64) float64 {
	m := math.Inf(1)
	for j := range sp.runs {
		r := &sp.runs[j]
		if j == 0 && r.count == 1 {
			continue // the root's own run: nothing of it is in the pool
		}
		if v := f(r.power, r.bw(def)); v < m {
			m = v
		}
	}
	return m
}

// The heap is a binary min-heap of one run's members under the columns'
// name order. at() drains one per run: heap construction is O(count) with
// no upfront sort, so consuming k nodes of a huge run costs O(count + k log
// count) name comparisons instead of an O(count log count) full sort.

func (sp *sortedPool) heapLess(a, b int) bool {
	return sp.cols.NameLess(int(sp.heap[a]), int(sp.heap[b]))
}

func (sp *sortedPool) siftDown(i int) {
	h := sp.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && sp.heapLess(r, l) {
			m = r
		}
		if !sp.heapLess(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (sp *sortedPool) heapInit() {
	for i := len(sp.heap)/2 - 1; i >= 0; i-- {
		sp.siftDown(i)
	}
}

func (sp *sortedPool) heapPop() int32 {
	top := sp.heap[0]
	last := len(sp.heap) - 1
	sp.heap[0] = sp.heap[last]
	sp.heap = sp.heap[:last]
	sp.siftDown(0)
	return top
}
