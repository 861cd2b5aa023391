package core

import (
	"context"
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
// the request's columns. at and peek hand the planner a column index, and
// an index becomes a platform.Node — a name — only when the plan deploys
// that node (build). The ranking itself is no comparison sort:
// Columns.RankDesc radix-sorts the nodes' keys (a few passes over an array
// of bits, whatever the pool's order) and platform.RankDesc the classes'.
// Wherever sort_nodes breaks a tie by name (the ranking of nodes that
// share a sort key, the order members of a run are spent in, the
// interleaving of classes that share a sort key) the pool asks the
// columns' name order, never the index: over generated names the two part
// ways at 10 000 nodes, where "pool-10000" sorts between "pool-1000" and
// "pool-1001" (columndiff_test.go plans across that edge against the
// materialised platform).

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
	// prefix is the materialised prefix of the sorted expansion, as column
	// indices: a plan that deploys a few hundred of a million nodes never
	// spends the rest.
	prefix []int32
	// loaded counts the runs whose members have been loaded for spending:
	// spend holds the current run's members, and heap spends them in
	// ascending name order (see heapInit).
	loaded int
	spend  []int32
	// cuts cuts spend into runs already in name order (Columns.NameRuns),
	// or is nil: every member a run of its own. heap holds a position in
	// spend for each run not yet spent, its next member.
	cuts []int
	heap []int32
	// scratch holds the pool's order — and a node pool's sort keys and
	// runs — lent for the plan (borrowScratch) and handed back by release.
	scratch *Scratch
}

// Scratch is one planning job's pool-sized memory: the columns of a pool
// generated for the job (Columns), and what a plan builds its pool in — a
// node pool's sort keys, ranking and runs (~220 KB at 4 000 nodes), a
// class pool's dealt order (four bytes a node). It is most of what a job
// allocates. A plan borrows the Scratch its context carries
// (ContextWithScratch) for as long as it runs and leaves it, grown to the
// pool, for the next plan; a caller that plans over and over — the serving
// layer, which keeps one spare Scratch between jobs — so reuses one pool's
// memory instead of leaving a pool's worth to the collector per job.
type Scratch struct {
	lent    bool
	keys    []float64
	runs    []run
	ranking platform.Ranking
	order   []int32
	cols    platform.Columns
}

// Columns returns the memory in s a pool may be generated into
// (scenario.Spec.Columns), to plan under s. Whatever was generated there
// before is gone: hand s on only when nothing reads the columns any more.
func (s *Scratch) Columns() *platform.Columns { return &s.cols }

type scratchCtxKey struct{}

// ContextWithScratch returns ctx carrying s for the plans made under it.
// They borrow s one at a time, so ctx and s belong to one goroutine.
func ContextWithScratch(ctx context.Context, s *Scratch) context.Context {
	return context.WithValue(ctx, scratchCtxKey{}, s)
}

// borrowScratch lends the Scratch ctx carries, or a new one when it
// carries none or its own is lent out.
func borrowScratch(ctx context.Context) *Scratch {
	s, _ := ctx.Value(scratchCtxKey{}).(*Scratch)
	if s == nil || s.lent {
		s = new(Scratch)
	}
	s.lent = true
	return s
}

// newNodePool is sort_nodes (Steps 1–2) at node granularity: it ranks
// every node of cols by decreasing scheduling power computed with n-1
// prospective children — the heuristic does not yet know which node will
// be the agent, so each is ranked as if it had to schedule for the whole
// remaining pool — at the node's *own* link bandwidth, so a powerful node
// behind a slow WAN uplink sorts below a modest node on the fast local LAN.
// Ties break by name. It emits one run per node, built in s, which
// release hands back.
func newNodePool(c model.Costs, cols *platform.Columns, s *Scratch) *sortedPool {
	n := cols.Len()
	d := max(n-1, 1)
	s.keys = slices.Grow(s.keys[:0], n)[:n]
	for i := range s.keys {
		power, link := cols.Spec(i)
		r := run{power: power, link: link}
		s.keys[i] = calcSchPow(c, r.bw(cols.Bandwidth), power, d)
	}
	order := s.ranking.RankDesc(cols, s.keys)
	s.runs = slices.Grow(s.runs[:0], n)[:n]
	for pos, i := range order {
		power, link := cols.Spec(int(i))
		s.runs[pos] = run{power: power, link: link, count: 1, start: pos}
	}
	return &sortedPool{runs: s.runs, n: n, cols: cols, order: order, scratch: s}
}

// release hands the pool's Scratch back once its plan is done with the
// pool.
func (sp *sortedPool) release() {
	s := sp.scratch
	*sp = sortedPool{}
	s.lent = false
}

// newClassPool ranks the classes of ix by the sort_nodes key (scheduling
// power at d = n-1 children, each class at its own link), descending, and
// emits one run per class. Classes that share a sort key bit for bit (one
// SKU listed both with the default link and with an explicit override equal
// to it) cannot be laid out as blocks: sort_nodes interleaves their members
// by name, so they are emitted as single-member runs in name order —
// exactly that interleaving, whatever order the tied classes arrive in.
// The pool is dealt into s, which release hands back.
func newClassPool(c model.Costs, ix *ClassIndex, s *Scratch) *sortedPool {
	cols := ix.cols
	n := ix.NumNodes()
	d := max(n-1, 1)
	nc := ix.NumClasses()
	keys := make([]float64, nc)
	for i := range keys {
		cl := ix.Class(i)
		keys[i] = calcSchPow(c, cl.Link(cols.Bandwidth), cl.Power, d)
	}
	rank := platform.RankDesc(keys)
	s.order = ix.deal(rank, s.order)
	sp := &sortedPool{n: n, runs: make([]run, 0, nc), cols: cols, order: s.order, scratch: s}
	pos := 0
	for j := 0; j < nc; {
		k := j + 1
		for k < nc && keys[rank[k]] == keys[rank[j]] {
			k++
		}
		if k == j+1 {
			cl := ix.Class(int(rank[j]))
			sp.runs = append(sp.runs, run{power: cl.Power, link: cl.LinkBandwidth, count: int(cl.Count), start: pos})
			pos += int(cl.Count)
		} else {
			// The tied classes' blocks are adjacent in the layout, so their
			// interleaving is their joint block in name order.
			end := pos
			for _, ci := range rank[j:k] {
				end += int(ix.Class(int(ci)).Count)
			}
			block := sp.order[pos:end]
			slices.SortFunc(block, func(a, b int32) int { return cols.NameCmp(int(a), int(b)) })
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

// members returns run j's column indices, unordered.
func (sp *sortedPool) members(j int) []int32 {
	r := &sp.runs[j]
	return sp.order[r.start : r.start+r.count]
}

// at returns the column index of the node at sorted position i,
// materialising the expansion up to it: runs in order, each run's members
// in ascending name order.
func (sp *sortedPool) at(i int) int {
	for i >= len(sp.prefix) {
		for len(sp.heap) == 0 {
			sp.spend, sp.cuts = sp.members(sp.loaded), nil
			if len(sp.spend) > 1 {
				sp.cuts = sp.cols.NameRuns(sp.spend)
			}
			sp.heap = sp.heap[:0]
			if sp.cuts == nil {
				for p := range sp.spend {
					sp.heap = append(sp.heap, int32(p))
				}
			} else {
				for _, p := range sp.cuts {
					sp.heap = append(sp.heap, int32(p))
				}
			}
			sp.heapInit()
			sp.loaded++
		}
		sp.prefix = append(sp.prefix, sp.heapPop())
	}
	return int(sp.prefix[i])
}

// runOf returns the run holding sorted position pos.
func (sp *sortedPool) runOf(pos int) int {
	return sort.Search(len(sp.runs), func(j int) bool { return sp.runs[j].start > pos }) - 1
}

// peek returns the column index of the node at a candidate position (a
// run's first or second member) without materialising the expansion
// before it: the pair snapshot may pick a node deep in the pool, and
// spending a million nodes to reach it would cost more than the plan.
func (sp *sortedPool) peek(pos int) int {
	if pos < len(sp.prefix) {
		return int(sp.prefix[pos])
	}
	j := sp.runOf(pos)
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
	return int(first)
}

// uniformLinks reports whether every node's link is the platform default
// def — the regime the paper's model assumes — computed over runs.
func (sp *sortedPool) uniformLinks(def float64) bool {
	for j := range sp.runs {
		if l := sp.runs[j].link; l > 0 && l != def {
			return false
		}
	}
	return true
}

// poolService folds Eq. 15 (calcHierSerPow) over the non-root pool —
// every node at positions 1..n-1 serving, the transfer charged at bw — in
// one pass over the runs in sorted order: its sums add the terms
// model.ServerCompTime adds, in the order it adds them, whatever the pool's
// granularity. The same pass returns the star snapshot's power sum, the
// root's power and then the pool's, added left to right.
//
//adeptvet:allow floataccum fixed left-to-right folds in sorted order, the same terms whichever way the pool was built
func (sp *sortedPool) poolService(c model.Costs, bw, wapp float64) (service, totalPow float64) {
	num, den := 1.0, 0.0
	pre := c.ServerWpre / wapp
	totalPow = sp.runs[0].power
	for j := range sp.runs {
		r := &sp.runs[j]
		w := r.power / wapp
		for pos := max(r.start, 1); pos < r.start+r.count; pos++ {
			num += pre
			den += w
			totalPow += r.power
		}
	}
	if sp.n < 2 {
		return 0, totalPow
	}
	return 1 / (model.ServerReceiveTime(c, bw) + model.ServerSendTime(c, bw) + num/den), totalPow
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

// The heap is a binary min-heap, under the columns' name order, of the
// next member of every name-ordered run of the members of one pool run
// (spend): a k-way merge of the runs. at() drains one per pool run. Over
// own names every member is a run of its own, so heap construction is
// O(count) with no upfront sort, and consuming k nodes of a huge run costs
// O(count + k log count) name comparisons instead of an O(count log count)
// full sort. Over generated names a pool run's members — ascending by
// index — are a few runs, one per digit width, so the heap is a handful of
// entries whatever the count, and a node costs a comparison or two.

func (sp *sortedPool) heapLess(a, b int) bool {
	return sp.cols.NameLess(int(sp.spend[sp.heap[a]]), int(sp.spend[sp.heap[b]]))
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

// heapPop spends the least name left: the head of its run, which the next
// member of that run replaces, if the run has one.
func (sp *sortedPool) heapPop() int32 {
	top := sp.heap[0]
	if next := int(top) + 1; sp.cuts != nil && next < len(sp.spend) && !slices.Contains(sp.cuts, next) {
		sp.heap[0] = int32(next)
	} else {
		last := len(sp.heap) - 1
		sp.heap[0] = sp.heap[last]
		sp.heap = sp.heap[:last]
	}
	sp.siftDown(0)
	return sp.spend[top]
}
