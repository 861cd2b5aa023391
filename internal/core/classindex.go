package core

import (
	"math"
	"sort"

	"adept/internal/platform"
)

// poolSource is where a class-collapsed pool's nodes live. The planner reads
// every node's spec once, to bucket it, and from then on holds nodes as
// indices into the source: a class's members, a run's name heap, the
// interleaving of classes that tie on the sort key. A node is handed out
// (Node) only when the plan reaches it, and sort_nodes' tie-break — name
// order — is asked of the source (NameLess), which may know it without
// holding a single name.
//
// There are two sources. nodeSource is a platform's node list: names are
// the nodes' own strings and their order is string order. *platform.Columns
// is a generated pool: a name is a function of the index, minted when Node
// is called, and name order is decided on integers — it is not index order
// once the indices outgrow the names' zero padding ("pool-10000" sorts
// before "pool-2000"), see platform.Columns.NameLess.
type poolSource interface {
	// Len returns the pool size.
	Len() int
	// Spec returns node i's power and raw link override.
	Spec(i int) (power, link float64)
	// Node returns node i, name included.
	Node(i int) platform.Node
	// NameLess reports whether node i's name sorts before node j's.
	NameLess(i, j int) bool
}

// nodeSource is a pool held as named nodes.
type nodeSource []platform.Node

func (s nodeSource) Len() int                         { return len(s) }
func (s nodeSource) Spec(i int) (power, link float64) { return s[i].Power, s[i].LinkBandwidth }
func (s nodeSource) Node(i int) platform.Node         { return s[i] }
func (s nodeSource) NameLess(i, j int) bool           { return s[i].Name < s[j].Name }

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
	src     poolSource
	classes []NodeClass
}

// NodeClass is one equivalence class: a spec plus its members.
type NodeClass struct {
	// Power is the members' computing power in MFlop/s.
	Power float64
	// LinkBandwidth is the members' raw per-node link override, exactly as
	// platform.Node carries it (0 = platform default). Classing on the raw
	// value keeps expansion rendering-faithful: an explicit override equal
	// to the platform default is a different class from "no override".
	LinkBandwidth float64

	members []int32 // indices into the index's source, in pool order
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
// in the input order.
func BuildClassIndex(nodes []platform.Node) *ClassIndex {
	return buildClassIndex(nodeSource(nodes))
}

// buildClassIndex indexes every node of src, however many classes that
// takes.
func buildClassIndex(src poolSource) *ClassIndex {
	// A pool cannot hold more classes than nodes, so only an empty pool
	// comes back nil: it has no classes.
	if ix := buildClassIndexCapped(src, src.Len()); ix != nil {
		return ix
	}
	return &ClassIndex{src: src}
}

// buildClassIndexCapped buckets the nodes of src into classes, giving up
// (returning nil) as soon as more than maxClasses distinct specs appear.
// The auto planner path uses the cap as a cheap compressibility probe: an
// all-distinct pool costs O(maxClasses) before the probe aborts, not O(n).
//
// Two passes, two pool-sized allocations: the first assigns every node its
// class and counts the classes' members, the second deals the node indices
// into one array cut into per-class blocks — four bytes a member, and no
// per-class slice to grow.
func buildClassIndexCapped(src poolSource, maxClasses int) *ClassIndex {
	n := src.Len()
	if maxClasses < 1 || n == 0 {
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
	counts := make([]int32, 0, 16)
	classOf := make([]int32, n)
	for i := range classOf {
		power, link := src.Spec(i)
		pb, bb := math.Float64bits(power), math.Float64bits(link)
		h := specHash(pb, bb) & mask
		for {
			slot := table[h]
			if slot == 0 {
				if len(classes) >= maxClasses {
					return nil
				}
				classes = append(classes, NodeClass{Power: power, LinkBandwidth: link})
				counts = append(counts, 0)
				slot = int32(len(classes))
				table[h] = slot
			}
			k := slot - 1
			if math.Float64bits(classes[k].Power) == pb && math.Float64bits(classes[k].LinkBandwidth) == bb {
				classOf[i] = k
				counts[k]++
				break
			}
			h = (h + 1) & mask
		}
	}
	members := make([]int32, n)
	off := 0
	for k := range classes {
		end := off + int(counts[k])
		classes[k].members = members[off:off:end]
		off = end
	}
	for i, k := range classOf {
		classes[k].members = append(classes[k].members, int32(i))
	}
	return &ClassIndex{src: src, classes: classes}
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
func (ix *ClassIndex) NumNodes() int { return ix.src.Len() }

// NumClasses returns the distinct spec count.
func (ix *ClassIndex) NumClasses() int { return len(ix.classes) }

// Class returns the i-th class in first-appearance order.
func (ix *ClassIndex) Class(i int) *NodeClass { return &ix.classes[i] }

// Expand reverses the collapse: every class emits its members (ascending
// names), classes in first-appearance order. The result is a permutation
// of the indexed pool — expand(collapse(pool)) preserves the multiset of
// (name, power, link) specs, a property the fuzz battery asserts.
func (ix *ClassIndex) Expand() []platform.Node {
	out := make([]platform.Node, 0, ix.NumNodes())
	for i := range ix.classes {
		members := append([]int32(nil), ix.classes[i].members...)
		sort.Slice(members, func(a, b int) bool { return ix.src.NameLess(int(members[a]), int(members[b])) })
		for _, m := range members {
			out = append(out, ix.src.Node(int(m)))
		}
	}
	return out
}
