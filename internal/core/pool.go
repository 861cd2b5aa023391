package core

import (
	"math"
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
	// nodes is the materialised prefix of the sorted expansion. A node pool
	// holds all n; a class-backed pool names nodes only as at() reaches
	// them, so a plan that deploys a few hundred of a million nodes never
	// names the rest.
	nodes []platform.Node

	// Class-backed pools only: each run's member names (unordered), the
	// number of runs whose names have been loaded into heap, and the heap
	// spending the current run's names in ascending order.
	members [][]string
	loaded  int
	heap    nameHeap
}

// newNodePool sorts the nodes (sort_nodes) and emits one run per node.
func newNodePool(c model.Costs, bandwidth float64, nodes []platform.Node) *sortedPool {
	sorted := sortNodes(c, bandwidth, nodes)
	runs := make([]run, len(sorted))
	for i := range sorted {
		runs[i] = run{power: sorted[i].Power, link: sorted[i].LinkBandwidth, count: 1, start: i}
	}
	return &sortedPool{runs: runs, n: len(sorted), nodes: sorted}
}

// newClassPool ranks the classes of ix by the sort_nodes key (scheduling
// power at d = n-1 children, each class at its own link), descending, ties
// by smallest member name, and emits one run per class. Classes that share
// a sort key bit for bit (one SKU listed both with the default link and
// with an explicit override equal to it) cannot be laid out as blocks:
// sort_nodes interleaves their members by name, so they are emitted as
// single-member runs in name order — exactly that interleaving.
func newClassPool(c model.Costs, bandwidth float64, ix *ClassIndex) *sortedPool {
	d := max(ix.total-1, 1)
	nc := ix.NumClasses()
	keys := make([]float64, nc)
	order := make([]int, nc)
	for i := range order {
		cl := ix.Class(i)
		keys[i] = calcSchPow(c, cl.link(bandwidth), cl.Power, d)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] > keys[order[b]]
		}
		return ix.Class(order[a]).minName < ix.Class(order[b]).minName
	})
	sp := &sortedPool{n: ix.total, runs: make([]run, 0, nc), members: make([][]string, 0, nc)}
	pos := 0
	emit := func(cl *NodeClass, names []string) {
		sp.runs = append(sp.runs, run{power: cl.Power, link: cl.LinkBandwidth, count: len(names), start: pos})
		sp.members = append(sp.members, names)
		pos += len(names)
	}
	type member struct {
		cl *NodeClass
		i  int
	}
	for j := 0; j < nc; {
		k := j + 1
		for k < nc && keys[order[k]] == keys[order[j]] {
			k++
		}
		if k == j+1 {
			cl := ix.Class(order[j])
			emit(cl, cl.names)
		} else {
			var tied []member
			for _, ci := range order[j:k] {
				cl := ix.Class(ci)
				for i := range cl.names {
					tied = append(tied, member{cl, i})
				}
			}
			sort.Slice(tied, func(a, b int) bool { return tied[a].cl.names[tied[a].i] < tied[b].cl.names[tied[b].i] })
			for _, m := range tied {
				emit(m.cl, m.cl.names[m.i:m.i+1])
			}
		}
		j = k
	}
	return sp
}

// at returns the node at sorted position i, materialising the expansion up
// to it: runs in order, each run's members in ascending name order.
func (sp *sortedPool) at(i int) platform.Node {
	for i >= len(sp.nodes) {
		for len(sp.heap) == 0 {
			sp.heap = append(sp.heap[:0], sp.members[sp.loaded]...)
			sp.heap.init()
			sp.loaded++
		}
		r := &sp.runs[sp.loaded-1]
		sp.nodes = append(sp.nodes, platform.Node{Name: sp.heap.pop(), Power: r.power, LinkBandwidth: r.link})
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
	r := &sp.runs[j]
	name, second := "", ""
	for _, nm := range sp.members[j] {
		switch {
		case name == "" || nm < name:
			name, second = nm, name
		case second == "" || nm < second:
			second = nm
		}
	}
	if pos > r.start {
		name = second
	}
	return platform.Node{Name: name, Power: r.power, LinkBandwidth: r.link}
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

// nameHeap is a binary min-heap of node names. at() drains one per run:
// heap construction is O(count) with no upfront sort, so consuming k nodes
// of a huge run costs O(count + k log count) string comparisons instead of
// an O(count log count) full sort.
type nameHeap []string

func (h nameHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h nameHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *nameHeap) pop() string {
	old := *h
	name := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.siftDown(0)
	return name
}
