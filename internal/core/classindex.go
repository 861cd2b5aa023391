package core

import (
	"slices"
	"sort"

	"adept/internal/platform"
)

// This file holds the class index: the pool's columns (platform.Columns)
// bucketed by spec. The planner reads every node's spec once, to bucket it
// — or not at all, when the columns were classed as they were drawn — and
// from then on holds nodes as int32 indices into the columns: the
// pool laid out class by class, a run's name heap, the interleaving of
// classes that tie on the sort key. A node is handed out (Columns.Node)
// only when the plan reaches it, and sort_nodes' tie-break — name order —
// is asked of the columns (Columns.NameLess), which decide it on integers
// for a generated pool without holding a single name.

// ClassIndex buckets a node pool into (rated power, link bandwidth)
// equivalence classes with multiplicity counts. It is what newClassPool
// builds the planner's sorted pool from: every planner quantity that
// depends only on a node's spec — sort keys, scheduling/servicing powers,
// prediction throughputs — is identical across a class's members, so a
// class becomes one run of the pool and a 1M-node cluster grid with ~40
// distinct specs costs ~40 run visits per spec scan. Node identity (names)
// is recovered by counted expansion: within a class, members are spent in
// ascending name order, sort_nodes' tie-break.
//
// Equivalence is exact: two nodes share a class iff their Power and raw
// LinkBandwidth have identical float64 bit patterns. Near-duplicates
// (powers one ulp apart) land in distinct classes — the fuzz corpus
// exercises exactly that boundary. The assignment is the columns' own
// (platform.Columns.Classes): the one a quantised scenario was drawn in,
// or a hash of every node's spec for any other pool.
type ClassIndex struct {
	cols    *platform.Columns
	classes []platform.SpecClass // read-only: a drawn pool's are its columns'
	classOf []int32              // each node's class, in pool order; read-only too
}

// BuildClassIndex buckets nodes into spec equivalence classes. Classes are
// ordered by first appearance in the pool, so the index is deterministic
// in the input order. The nodes must form a valid pool (see
// platform.Platform.Validate): they are converted into columns first, and
// BuildClassIndex panics with the conversion's error on an invalid pool.
func BuildClassIndex(nodes []platform.Node) *ClassIndex {
	// Classes are on the raw link, so the default bandwidth plays no part:
	// any valid one serves the conversion.
	cols, err := (&platform.Platform{Bandwidth: 1, Nodes: nodes}).Columns()
	if err != nil {
		panic("core: BuildClassIndex: " + err.Error())
	}
	return buildClassIndexCapped(cols, cols.Len())
}

// buildClassIndexCapped indexes the classes of cols (Columns.Classes),
// giving up (returning nil) when more than maxClasses distinct specs
// appear — never, with a cap of cols.Len(). The auto planner path uses the
// cap as a cheap compressibility probe. A quantised scenario's columns
// carry the assignment they were drawn in, and the index is that
// assignment, with no pass over the pool; any other pool is hashed node by
// node, one pass and one pool-sized allocation. Either way the members
// themselves are dealt out only by whoever lays the classes out (deal), in
// the order it needs.
func buildClassIndexCapped(cols *platform.Columns, maxClasses int) *ClassIndex {
	classes, classOf := cols.Classes(maxClasses)
	if classes == nil {
		return nil
	}
	return &ClassIndex{cols: cols, classes: classes, classOf: classOf}
}

// deal lays the pool out class by class in the order rank gives the
// classes: the members of class rank[0] first, then those of rank[1], and
// so on, each class's members in pool order — four bytes a node, in
// into's memory grown to the pool (every entry is written).
//
//adeptvet:hotpath
func (ix *ClassIndex) deal(rank, into []int32) []int32 {
	next := make([]int32, len(ix.classes))
	off := int32(0)
	for _, k := range rank {
		next[k] = off
		off += ix.classes[k].Count
	}
	order := slices.Grow(into[:0], len(ix.classOf))[:len(ix.classOf)]
	for i, k := range ix.classOf {
		order[next[k]] = int32(i)
		next[k]++
	}
	return order
}

// NumNodes returns the total node count across all classes.
func (ix *ClassIndex) NumNodes() int { return ix.cols.Len() }

// NumClasses returns the distinct spec count.
func (ix *ClassIndex) NumClasses() int { return len(ix.classes) }

// Class returns the i-th class in first-appearance order.
func (ix *ClassIndex) Class(i int) *platform.SpecClass { return &ix.classes[i] }

// Expand reverses the collapse: every class emits its members (ascending
// names), classes in first-appearance order. The result is a permutation
// of the indexed pool — expand(collapse(pool)) preserves the multiset of
// (name, power, link) specs, a property the fuzz battery asserts.
func (ix *ClassIndex) Expand() []platform.Node {
	rank := make([]int32, len(ix.classes))
	for k := range rank {
		rank[k] = int32(k)
	}
	order := ix.deal(rank, nil)
	out := make([]platform.Node, 0, len(order))
	for start, k := 0, 0; k < len(ix.classes); k++ {
		block := order[start : start+int(ix.classes[k].Count)]
		sort.Slice(block, func(a, b int) bool { return ix.cols.NameLess(int(block[a]), int(block[b])) })
		for _, m := range block {
			out = append(out, ix.cols.Node(int(m)))
		}
		start += len(block)
	}
	return out
}
