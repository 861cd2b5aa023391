package core

import (
	"math"
	"sort"

	"adept/internal/platform"
)

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
	classes []NodeClass
	total   int
}

// NodeClass is one equivalence class: a spec plus its member names.
type NodeClass struct {
	// Power is the members' computing power in MFlop/s.
	Power float64
	// LinkBandwidth is the members' raw per-node link override, exactly as
	// platform.Node carries it (0 = platform default). Classing on the raw
	// value keeps expansion rendering-faithful: an explicit override equal
	// to the platform default is a different class from "no override".
	LinkBandwidth float64

	names   []string // member names, in platform order
	minName string   // smallest member name (class sort tie-break)
}

// Count returns the class's multiplicity.
func (cl *NodeClass) Count() int { return len(cl.names) }

// link resolves the class's effective bandwidth against the platform
// default, mirroring platform.Node.Link.
func (cl *NodeClass) link(def float64) float64 {
	if cl.LinkBandwidth > 0 {
		return cl.LinkBandwidth
	}
	return def
}

// node materialises a platform.Node of this class with the given name.
func (cl *NodeClass) node(name string) platform.Node {
	return platform.Node{Name: name, Power: cl.Power, LinkBandwidth: cl.LinkBandwidth}
}

// BuildClassIndex buckets nodes into spec equivalence classes. Classes are
// ordered by first appearance in the pool, so the index is deterministic
// in the input order.
func BuildClassIndex(nodes []platform.Node) *ClassIndex {
	ix := buildClassIndexCapped(nodes, len(nodes))
	if ix == nil {
		// cap == len(nodes) can never be exceeded.
		panic("core: BuildClassIndex exceeded its own cap")
	}
	return ix
}

// buildClassIndexCapped buckets nodes into classes, giving up (returning
// nil) as soon as more than maxClasses distinct specs appear. The auto
// planner path uses the cap as a cheap compressibility probe: an
// all-distinct pool costs O(maxClasses) before the probe aborts, not O(n).
func buildClassIndexCapped(nodes []platform.Node, maxClasses int) *ClassIndex {
	if maxClasses < 1 || len(nodes) == 0 {
		return nil
	}
	// Open-addressed table of class indices (+1; 0 = empty), sized for a
	// load factor of at most 1/2. Linear probing with a mixed 128→64-bit
	// spec hash; fully deterministic (first appearance wins the slot walk).
	tableSize := 16
	for tableSize < 2*maxClasses {
		tableSize <<= 1
	}
	table := make([]int32, tableSize)
	mask := uint64(tableSize - 1)
	classes := make([]NodeClass, 0, 16)
	for _, nd := range nodes {
		pb, bb := math.Float64bits(nd.Power), math.Float64bits(nd.LinkBandwidth)
		h := specHash(pb, bb) & mask
		ci := -1
		for {
			slot := table[h]
			if slot == 0 {
				if len(classes) >= maxClasses {
					return nil
				}
				classes = append(classes, NodeClass{Power: nd.Power, LinkBandwidth: nd.LinkBandwidth, minName: nd.Name})
				table[h] = int32(len(classes))
				ci = len(classes) - 1
				break
			}
			k := int(slot) - 1
			if math.Float64bits(classes[k].Power) == pb && math.Float64bits(classes[k].LinkBandwidth) == bb {
				ci = k
				break
			}
			h = (h + 1) & mask
		}
		cl := &classes[ci]
		cl.names = append(cl.names, nd.Name)
		if nd.Name < cl.minName {
			cl.minName = nd.Name
		}
	}
	return &ClassIndex{classes: classes, total: len(nodes)}
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
func (ix *ClassIndex) NumNodes() int { return ix.total }

// NumClasses returns the distinct spec count.
func (ix *ClassIndex) NumClasses() int { return len(ix.classes) }

// Class returns the i-th class in first-appearance order.
func (ix *ClassIndex) Class(i int) *NodeClass { return &ix.classes[i] }

// Expand reverses the collapse: every class emits its members (ascending
// names), classes in first-appearance order. The result is a permutation
// of the indexed pool — expand(collapse(pool)) preserves the multiset of
// (name, power, link) specs, a property the fuzz battery asserts.
func (ix *ClassIndex) Expand() []platform.Node {
	out := make([]platform.Node, 0, ix.total)
	for i := range ix.classes {
		cl := &ix.classes[i]
		names := append([]string(nil), cl.names...)
		sort.Strings(names)
		for _, name := range names {
			out = append(out, cl.node(name))
		}
	}
	return out
}
