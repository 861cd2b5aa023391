package core

import (
	"math"
	"sort"

	"adept/internal/platform"
)

// This file holds the class index: the pool's columns (platform.Columns)
// bucketed by spec. The planner reads every node's spec once, to bucket it,
// and from then on holds nodes as int32 indices into the columns: the
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
// exercises exactly that boundary.
type ClassIndex struct {
	cols    *platform.Columns
	classes []NodeClass
	classOf []int32 // each node's class, in pool order
}

// NodeClass is one equivalence class: a spec plus its member count.
type NodeClass struct {
	// Power is the members' computing power in MFlop/s.
	Power float64
	// LinkBandwidth is the members' raw per-node link override, exactly as
	// platform.Node carries it (0 = platform default). Classing on the raw
	// value keeps expansion rendering-faithful: an explicit override equal
	// to the platform default is a different class from "no override".
	LinkBandwidth float64

	count int32
}

// link resolves the class's effective bandwidth against the platform
// default, mirroring platform.Node.Link.
func (cl *NodeClass) link(def float64) float64 {
	if cl.LinkBandwidth > 0 {
		return cl.LinkBandwidth
	}
	return def
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

// buildClassIndexCapped buckets the nodes of cols into classes, giving up
// (returning nil) as soon as more than maxClasses distinct specs appear —
// never, with a cap of cols.Len().
// The auto planner path uses the cap as a cheap compressibility probe: an
// all-distinct pool costs O(maxClasses) before the probe aborts, not O(n).
//
// One pass and one pool-sized allocation: every node is assigned its class
// and the classes count their members. The members themselves are dealt
// out only by whoever lays the classes out (deal), in the order it needs.
func buildClassIndexCapped(cols *platform.Columns, maxClasses int) *ClassIndex {
	n := cols.Len()
	if maxClasses < 1 || n == 0 {
		return nil
	}
	// Open-addressed table of class indices (+1; 0 = empty), sized to the
	// classes found so far: it starts at 64 slots and doubles whenever it
	// is half full, so a pool of a few dozen specs probes a table that stays
	// in L1 whatever the cap. Linear probing with a mixed 128→64-bit spec
	// hash; fully deterministic (class ids are first-appearance order, and a
	// rehash re-inserts them in that order).
	table := make([]int32, 64)
	mask := uint64(len(table) - 1)
	classes := make([]NodeClass, 0, 16)
	classOf := make([]int32, n)
	for i := range classOf {
		power, link := cols.Spec(i)
		pb, bb := math.Float64bits(power), math.Float64bits(link)
		h := specHash(pb, bb) & mask
		for {
			slot := table[h]
			if slot == 0 {
				if len(classes) >= maxClasses {
					return nil
				}
				classes = append(classes, NodeClass{Power: power, LinkBandwidth: link})
				slot = int32(len(classes))
				table[h] = slot
				if 2*len(classes) >= len(table) {
					table = rehash(classes, 2*len(table))
					mask = uint64(len(table) - 1)
				}
			}
			k := slot - 1
			if math.Float64bits(classes[k].Power) == pb && math.Float64bits(classes[k].LinkBandwidth) == bb {
				classOf[i] = k
				classes[k].count++
				break
			}
			h = (h + 1) & mask
		}
	}
	return &ClassIndex{cols: cols, classes: classes, classOf: classOf}
}

// rehash builds a table of size slots (a power of two) holding classes,
// inserted in class-id order.
func rehash(classes []NodeClass, size int) []int32 {
	table := make([]int32, size)
	mask := uint64(size - 1)
	for k := range classes {
		h := specHash(math.Float64bits(classes[k].Power), math.Float64bits(classes[k].LinkBandwidth)) & mask
		for table[h] != 0 {
			h = (h + 1) & mask
		}
		table[h] = int32(k + 1)
	}
	return table
}

// deal lays the pool out class by class in the order rank gives the
// classes: the members of class rank[0] first, then those of rank[1], and
// so on, each class's members in pool order — four bytes a node.
func (ix *ClassIndex) deal(rank []int32) []int32 {
	next := make([]int32, len(ix.classes))
	off := int32(0)
	for _, k := range rank {
		next[k] = off
		off += ix.classes[k].count
	}
	order := make([]int32, len(ix.classOf))
	for i, k := range ix.classOf {
		order[next[k]] = int32(i)
		next[k]++
	}
	return order
}

// specHash mixes the two spec bit patterns into one table hash
// (splitmix64-style finalisation).
func specHash(p, b uint64) uint64 {
	h := p*0x9e3779b97f4a7c15 ^ b
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// NumNodes returns the total node count across all classes.
func (ix *ClassIndex) NumNodes() int { return ix.cols.Len() }

// NumClasses returns the distinct spec count.
func (ix *ClassIndex) NumClasses() int { return len(ix.classes) }

// Class returns the i-th class in first-appearance order.
func (ix *ClassIndex) Class(i int) *NodeClass { return &ix.classes[i] }

// Expand reverses the collapse: every class emits its members (ascending
// names), classes in first-appearance order. The result is a permutation
// of the indexed pool — expand(collapse(pool)) preserves the multiset of
// (name, power, link) specs, a property the fuzz battery asserts.
func (ix *ClassIndex) Expand() []platform.Node {
	rank := make([]int32, len(ix.classes))
	for k := range rank {
		rank[k] = int32(k)
	}
	order := ix.deal(rank)
	out := make([]platform.Node, 0, len(order))
	for start, k := 0, 0; k < len(ix.classes); k++ {
		block := order[start : start+int(ix.classes[k].count)]
		sort.Slice(block, func(a, b int) bool { return ix.cols.NameLess(int(block[a]), int(block[b])) })
		for _, m := range block {
			out = append(out, ix.cols.Node(int(m)))
		}
		start += len(block)
	}
	return out
}
