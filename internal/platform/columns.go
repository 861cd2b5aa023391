package platform

import (
	"crypto/sha256"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Columns is a platform in columnar form — the one form the planners read a
// pool in and the registry stores: a power column and a link column, at
// sixteen bytes a node, plus node names. It describes exactly the platform
// Platform() expands it into.
//
// Names come one of two ways. Columns decoded from JSON (DecodeJSON) or
// converted from a platform's node list (Platform.Columns) hold the pool's
// own names, end to end in one string with an end offset per node, and
// building them is the platform's validation (Validate, one pass): such
// columns are valid by construction, and Lookup is the hash table that
// proved their names unique. Columns built as a literal (scenario
// generation) hold none: a node's name is then a pure function of its index,
// "<Name>-%04d", minted only when asked for, and Lookup is that function's
// inverse — injective by construction, so there is nothing to prove. Either
// way a consumer that reads a pool's specs and names a few hundred of its
// nodes (the planner) works on the columns and asks NodeName for those few
// hundred.
//
// Columns a quantised scenario draws are classed as they are drawn
// (Classify): they carry each node's spec class, and the classes hold the
// nodes' links in place of a link column, so reading a pool as classes
// (Classes) costs them nothing.
//
// Ranking a pool (RankDesc) is an exact LSD radix sort on the keys' bits
// with name order deciding ties — the order a comparison sort under
// (cmp.Compare descending, NameCmp) returns, at a few passes over the keys.
type Columns struct {
	// Name labels the platform and, without a names column, prefixes every
	// node name.
	Name string
	// Bandwidth is the default link bandwidth B in Mbit/s.
	Bandwidth float64
	// Powers holds each node's computing power in MFlop/s, in pool order.
	Powers []float64
	// Links holds each node's raw link override in Mbit/s (0 = Bandwidth),
	// as Node.LinkBandwidth carries it; nil means no node overrides, or,
	// in a pool classed as it was drawn (Classify), that the classes hold
	// them. Spec reads a node's either way.
	Links []float64

	// names holds the pool's own node names end to end and ends where each
	// stops: node i is names[ends[i-1]:ends[i]] (from 0 for node 0); nil
	// ends selects the generated rule. index finds a name's node: an
	// open-addressed table of node indices plus one (zero is a free slot), at
	// most half full, probed from a hash of the name under seed — drawn per
	// validation, so no easier to flood than a map.
	names string
	ends  []uint32
	index []uint32
	seed  maphash.Seed

	// classes and classOf, when set (Classify), are the spec classes the
	// pool was drawn in: node i holds classes[classOf[i]]'s spec.
	classes []SpecClass
	classOf []int32
}

// SpecClass is one spec equivalence class of a pool: the power and raw link
// override its members share, bit for bit, and how many members it has.
type SpecClass struct {
	// Power is the members' computing power in MFlop/s.
	Power float64
	// LinkBandwidth is the members' raw link override, exactly as Node
	// carries it (0 = platform default). Classing on the raw value keeps
	// expansion rendering-faithful: an explicit override equal to the
	// platform default is a different class from "no override".
	LinkBandwidth float64
	// Count is the number of members.
	Count int32
}

// Link resolves the class's effective bandwidth against the platform
// default, as Node.Link does.
func (cl *SpecClass) Link(def float64) float64 {
	if cl.LinkBandwidth > 0 {
		return cl.LinkBandwidth
	}
	return def
}

// validBandwidth, validPower and validLink are the range predicates of a
// well-formed pool: a platform bandwidth and a node power are finite and
// positive, a link override is finite and not negative (zero means "the
// platform default"). NaN fails every comparison, so each predicate is
// phrased to fail on it.
func validBandwidth(b float64) bool { return b > 0 && !math.IsInf(b, 1) }
func validPower(w float64) bool     { return w > 0 && !math.IsInf(w, 1) }
func validLink(l float64) bool      { return l >= 0 && !math.IsInf(l, 1) }

func errBandwidth(plat string, b float64) error {
	return fmt.Errorf("platform %q: bandwidth must be positive, got %g", plat, b)
}

func errPower(plat, node string, w float64) error {
	if w > 0 {
		return fmt.Errorf("platform %q: node %q has non-finite power %g", plat, node, w)
	}
	return fmt.Errorf("platform %q: node %q has non-positive power %g", plat, node, w)
}

func errLink(plat, node string, l float64) error {
	return fmt.Errorf("platform %q: node %q has invalid link bandwidth %g", plat, node, l)
}

// maxNameBytes bounds the names column: its end offsets are 32-bit.
const maxNameBytes uint64 = math.MaxUint32

// Columns converts the platform into columnar form and validates it
// (Validate): the first failure is the error. The names are copied into
// one string, and the powers and links into their columns, so later changes
// to p do not reach the columns.
func (p *Platform) Columns() (*Columns, error) {
	n := len(p.Nodes)
	size := 0
	for i := range p.Nodes {
		size += len(p.Nodes[i].Name)
	}
	if uint64(size) > maxNameBytes {
		return nil, fmt.Errorf("platform %q: node names exceed %d bytes", p.Name, maxNameBytes)
	}
	c := &Columns{Name: p.Name, Bandwidth: p.Bandwidth, Powers: make([]float64, n), ends: make([]uint32, n)}
	var names strings.Builder
	names.Grow(size)
	for i := range p.Nodes {
		nd := &p.Nodes[i]
		names.WriteString(nd.Name)
		c.ends[i] = uint32(names.Len())
		c.Powers[i] = nd.Power
		// Compared as bits, so an explicit -0 survives the round trip (the
		// digest tells it from 0).
		if math.Float64bits(nd.LinkBandwidth) != 0 {
			if c.Links == nil {
				c.Links = make([]float64, n)
			}
			c.Links[i] = nd.LinkBandwidth
		}
	}
	c.names = names.String()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate is the one validation pass of a pool, whichever way its columns
// were built: a finite positive bandwidth, at least one node, and node by
// node — in pool order, the first failure being the error — a non-empty
// name, a finite positive power, a finite non-negative link override and a
// name no earlier node holds. Over the pool's own names it builds Lookup's
// table on the way, so it runs once, where the columns are built, before
// anyone else reads them; generated names are unique by construction, and
// over them it allocates nothing on a valid pool.
func (c *Columns) Validate() error {
	if !validBandwidth(c.Bandwidth) {
		return errBandwidth(c.Name, c.Bandwidth)
	}
	n := len(c.Powers)
	if n == 0 {
		return fmt.Errorf("platform %q: no nodes", c.Name)
	}
	if c.Links != nil && len(c.Links) != n {
		return fmt.Errorf("platform %q: %d link overrides for %d nodes", c.Name, len(c.Links), n)
	}
	if c.ends == nil {
		if c.classes != nil && c.validClasses() {
			return nil
		}
		for i := range c.Powers {
			if power, link := c.Spec(i); !validPower(power) {
				return errPower(c.Name, c.name(i), power)
			} else if !validLink(link) {
				return errLink(c.Name, c.name(i), link)
			}
		}
		return nil
	}
	c.index = make([]uint32, 1<<bits.Len(uint(2*n-1)))
	c.seed = maphash.MakeSeed()
	for i, w := range c.Powers {
		name := c.ownName(i)
		if name == "" {
			return fmt.Errorf("platform %q: node %d has empty name", c.Name, i)
		}
		if !validPower(w) {
			return errPower(c.Name, name, w)
		}
		if c.Links != nil && !validLink(c.Links[i]) {
			return errLink(c.Name, name, c.Links[i])
		}
		h := c.slot(name)
		if c.index[h] != 0 {
			return fmt.Errorf("platform %q: duplicate node name %q", c.Name, name)
		}
		c.index[h] = uint32(i + 1)
	}
	return nil
}

// validClasses reports whether every spec class of a classed pool is in
// range — whether every node is. When one is not, Validate names the first
// node that fails from the node-by-node pass.
func (c *Columns) validClasses() bool {
	for _, cl := range c.classes {
		if !validPower(cl.Power) || !validLink(cl.LinkBandwidth) {
			return false
		}
	}
	return true
}

// ownName returns node i's own name, a substring of the names column.
func (c *Columns) ownName(i int) string {
	lo := uint32(0)
	if i > 0 {
		lo = c.ends[i-1]
	}
	return c.names[lo:c.ends[i]]
}

// slot returns the index-table slot that holds name, or the free slot where
// the probe for it ends.
func (c *Columns) slot(name string) uint64 {
	mask := uint64(len(c.index) - 1)
	h := maphash.String(c.seed, name) & mask
	for c.index[h] != 0 && c.ownName(int(c.index[h]-1)) != name {
		h = (h + 1) & mask
	}
	return h
}

// Len returns the pool size.
func (c *Columns) Len() int { return len(c.Powers) }

// minNameDigits is the zero-padded width of a generated name's index: "%04d".
const minNameDigits = 4

// NodeName returns the name of node i, as a string of its own: a copy of
// the node's own name, or "<Name>-" and the index, zero-padded to four
// digits (wider from 10 000 on). Either costs that string and nothing
// else, and neither holds on to the names column: a name handed to a
// deployment that outlives the columns — a cached plan — keeps its own
// bytes alive, not the pool's.
func (c *Columns) NodeName(i int) string {
	if c.ends != nil {
		return strings.Clone(c.ownName(i))
	}
	return c.name(i)
}

// name is NodeName without the copy of an own name: for the columns' own
// use, and for an expansion that lives with them.
func (c *Columns) name(i int) string {
	if c.ends != nil {
		return c.ownName(i)
	}
	var stack [64]byte
	buf := append(stack[:0], c.Name...)
	return string(appendIndex(append(buf, '-'), i))
}

// appendIndex appends i as "%04d".
func appendIndex(buf []byte, i int) []byte {
	for pad := 1000; pad > 1 && i < pad; pad /= 10 {
		buf = append(buf, '0')
	}
	return strconv.AppendInt(buf, int64(i), 10)
}

// Spec returns node i's power and raw link override (0 = Bandwidth).
func (c *Columns) Spec(i int) (power, link float64) {
	switch {
	case c.Links != nil:
		link = c.Links[i]
	case c.classes != nil:
		link = c.classes[c.classOf[i]].LinkBandwidth
	}
	return c.Powers[i], link
}

// Node returns node i of the pool, name included.
func (c *Columns) Node(i int) Node {
	power, link := c.Spec(i)
	return Node{Name: c.NodeName(i), Power: power, LinkBandwidth: link}
}

// Lookup is the inverse of NodeName: the index of the node called name, or
// false when no node of the pool has that name. Over own names it probes the
// table validation built. Over generated names it accepts exactly the
// strings NodeName produces — the whole of Name, a dash, and the index in
// its one canonical spelling (at least four digits, no sign, no leading
// zero beyond the padding) — so two names never resolve to one node.
func (c *Columns) Lookup(name string) (int, bool) {
	if c.ends != nil {
		k := c.index[c.slot(name)]
		return int(k) - 1, k != 0
	}
	digits, ok := strings.CutPrefix(name, c.Name)
	if !ok || len(digits) < 1+minNameDigits || digits[0] != '-' {
		return 0, false
	}
	digits = digits[1:]
	if len(digits) > minNameDigits && digits[0] == '0' {
		return 0, false
	}
	i := 0
	for _, d := range []byte(digits) {
		if d < '0' || d > '9' {
			return 0, false
		}
		// Checked digit by digit, so an index too long for an int is
		// refused before it can wrap.
		if i = i*10 + int(d-'0'); i >= len(c.Powers) {
			return 0, false
		}
	}
	return i, true
}

// nameKey maps an index to a key that orders as the digits of its generated
// name do under string comparison: the digit string (zero-padded to four)
// read as a decimal fraction, scaled to nineteen digits. Index order is name
// order only within one width: "pool-10000" sorts before "pool-2000".
func nameKey(i int) uint64 {
	k, scale := uint64(i), uint64(1e15)
	for limit := uint64(1e4); k >= limit && scale > 1; limit *= 10 {
		scale /= 10
	}
	return k * scale
}

// NameLess reports whether NodeName(i) < NodeName(j) as strings. Generated
// names are compared without building either: keys tie only when one name's
// digits extend the other's with zeros ("1000", "10000"), and then the
// shorter name — the smaller index — sorts first.
func (c *Columns) NameLess(i, j int) bool {
	if c.ends != nil {
		return c.ownName(i) < c.ownName(j)
	}
	ki, kj := nameKey(i), nameKey(j)
	return ki < kj || ki == kj && i < j
}

// NameRuns cuts ascending — node indices in ascending order — into runs
// that are each in ascending name order, and returns where each run starts
// in it (0 first). Generated names order as their indices do within one
// digit width, so the runs are the widths, found by binary search: a
// handful, whatever the count. Over own names it returns nil — no order
// is known; take every index as a run of its own.
func (c *Columns) NameRuns(ascending []int32) []int {
	if c.ends != nil {
		return nil
	}
	cuts := make([]int, 1, 4)
	for limit := int64(1e4); ; limit *= 10 {
		at := sort.Search(len(ascending), func(k int) bool { return int64(ascending[k]) >= limit })
		if at == len(ascending) {
			return cuts
		}
		if at > cuts[len(cuts)-1] {
			cuts = append(cuts, at)
		}
	}
}

// NameCmp is NameLess as a three-way comparison, for slices.SortFunc. Names
// are unique, so only a node compares equal to itself.
func (c *Columns) NameCmp(i, j int) int {
	switch {
	case i == j:
		return 0
	case c.NameLess(i, j):
		return -1
	}
	return 1
}

// RankDesc returns the permutation of the pool's indices that orders it by
// keys — one per node — descending under cmp.Compare, nodes whose keys
// compare equal in name order: exactly what slices.SortFunc returns under
// that comparator (names are unique, so the order is total). It ranks the
// keys with RankDesc and then puts each run of equal keys in name order; a
// run is a single node unless keys tie.
func (c *Columns) RankDesc(keys []float64) []int32 {
	return new(Ranking).RankDesc(c, keys)
}

// Ranking holds the buffers a ranking is made in. Ranking pool after pool
// through one Ranking allocates only when a pool outgrows the buffers; the
// permutation a call returns is one of them, valid until the next call.
type Ranking struct {
	bits  []uint64
	order []int32
}

// RankDesc is c.RankDesc(keys), ranked in r's buffers.
func (r *Ranking) RankDesc(c *Columns, keys []float64) []int32 {
	order, bits := r.rankDesc(keys)
	cmpNames := func(a, b int32) int { return c.NameCmp(int(a), int(b)) }
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && bits[order[hi]] == bits[order[lo]] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], cmpNames)
		}
		lo = hi
	}
	return order
}

// RankDesc returns the permutation of indices that orders keys descending
// under cmp.Compare — NaN last, -0 equal to +0 — keys that compare equal
// keeping index order: the order slices.SortStableFunc returns under
// func(a, b) int { return cmp.Compare(keys[b], keys[a]) }.
func RankDesc(keys []float64) []int32 {
	order, _ := new(Ranking).rankDesc(keys)
	return order
}

// descBits maps a key to bits whose unsigned order is the key's descending
// cmp.Compare order: a positive float's bits read in reverse below the
// sign bit, a negative float's as they are (a larger magnitude is a smaller
// number), -0 as +0, and every NaN to the largest value — last.
func descBits(x float64) uint64 {
	if x != x {
		return math.MaxUint64
	}
	if x == 0 {
		x = 0 // -0 compares equal to +0
	}
	u := math.Float64bits(x)
	neg := uint64(int64(u) >> 63)
	return u ^ (^neg >> 1)
}

// rankDesc is RankDesc, returning beside the permutation every key's
// descBits, in index order; both are r's buffers. It is a stable LSD radix
// sort of the indices on those bits, a byte a pass from the least
// significant, between two halves of one buffer: one pass counts every
// byte position at once, and a position where every key holds the same
// byte is skipped, so a pool whose keys share their sign and top exponent
// bits is ranked in six passes or fewer. The passes read the bits through
// the index they move, which is cheaper than carrying them along: a pool's
// bits stay in cache.
//
//adeptvet:hotpath
func (r *Ranking) rankDesc(keys []float64) (order []int32, bits []uint64) {
	n := len(keys)
	r.bits = slices.Grow(r.bits[:0], n)[:n]
	r.order = slices.Grow(r.order[:0], 2*n)[:2*n]
	bits = r.bits
	src, dst := r.order[:n:n], r.order[n:]
	var counts [8][256]int32
	for i, x := range keys {
		u := descBits(x)
		bits[i], src[i] = u, int32(i)
		counts[0][byte(u)]++
		counts[1][byte(u>>8)]++
		counts[2][byte(u>>16)]++
		counts[3][byte(u>>24)]++
		counts[4][byte(u>>32)]++
		counts[5][byte(u>>40)]++
		counts[6][byte(u>>48)]++
		counts[7][byte(u>>56)]++
	}
	for pass := range counts {
		shift := 8 * uint(pass)
		cnt := &counts[pass]
		if n == 0 || cnt[byte(bits[0]>>shift)] == int32(n) {
			continue // every key holds the same byte here
		}
		at := int32(0)
		for b, k := range cnt {
			cnt[b] = at
			at += k
		}
		for _, i := range src {
			b := byte(bits[i] >> shift)
			p := cnt[b]
			cnt[b] = p + 1
			dst[p] = i
		}
		src, dst = dst[:n:n], src
	}
	return src, bits
}

// LinkRange returns the minimum and maximum effective link bandwidth over
// the pool (zeros resolved against Bandwidth), as Platform.LinkRange does:
// over a classed pool's classes, which hold every link the pool does.
func (c *Columns) LinkRange() (min, max float64) {
	if c.Links == nil && c.classes == nil {
		return c.Bandwidth, c.Bandwidth
	}
	min, max = math.Inf(1), math.Inf(-1)
	widen := func(bw float64) {
		if bw <= 0 {
			bw = c.Bandwidth
		}
		min, max = math.Min(min, bw), math.Max(max, bw)
	}
	if c.classes != nil {
		for _, cl := range c.classes {
			widen(cl.LinkBandwidth)
		}
		return min, max
	}
	for _, bw := range c.Links {
		widen(bw)
	}
	return min, max
}

// Classify records the spec classes the pool was drawn in: node i holds
// classes[classOf[i]]'s power and link bit for bit, the classes are
// numbered in order of their first member, and each counts its members.
// The producer vouches for all of it, nothing re-reads a node to check,
// and neither side changes the columns or the classes afterwards. The
// link column may then be nil, the classes holding every node's link.
// Validate checks the classes' specs instead of every node's, LinkRange
// folds over them, and Classes hands them out as they are.
func (c *Columns) Classify(classes []SpecClass, classOf []int32) {
	c.classes, c.classOf = classes, classOf
}

// Recycle empties c for another pool to be drawn into it and hands back
// the memory of its power, link and class columns, each emptied, for the
// producer to grow instead of allocating: whatever read the old pool must
// be done with it.
func (c *Columns) Recycle() (powers, links []float64, classOf []int32) {
	powers, links, classOf = c.Powers[:0], c.Links[:0], c.classOf[:0]
	*c = Columns{}
	return powers, links, classOf
}

// Classes buckets the pool into spec equivalence classes: two nodes share
// a class iff their power and raw link override have identical float64 bit
// patterns, so near-duplicates (one ulp apart) are distinct classes. It
// returns the classes in order of first appearance, each counting its
// members, and each node's class in pool order — or nils as soon as more
// than maxClasses distinct specs appear (or the pool is empty): a cap
// well below the pool's size is a cheap compressibility probe, as an
// incompressible pool costs O(maxClasses) before it is given up on.
//
// A pool classed as it was drawn (Classify) hands out that assignment,
// shared and read-only, at no cost. Any other — decoded, converted — is
// hashed in one pass: every node is assigned its class and the classes
// count their members.
func (c *Columns) Classes(maxClasses int) ([]SpecClass, []int32) {
	n := c.Len()
	if maxClasses < 1 || n == 0 {
		return nil, nil
	}
	if c.classes != nil {
		if len(c.classes) > maxClasses {
			return nil, nil
		}
		return c.classes, c.classOf
	}
	// Open-addressed table of class indices (+1; 0 = empty), sized to the
	// classes found so far: it starts at 64 slots and doubles whenever it
	// is half full, so a pool of a few dozen specs probes a table that stays
	// in L1 whatever the cap. Linear probing with a mixed 128→64-bit spec
	// hash; fully deterministic (class ids are first-appearance order, and a
	// rehash re-inserts them in that order).
	table := make([]int32, 64)
	mask := uint64(len(table) - 1)
	classes := make([]SpecClass, 0, 16)
	classOf := make([]int32, n)
	for i := range classOf {
		power, link := c.Spec(i)
		pb, bb := math.Float64bits(power), math.Float64bits(link)
		h := specHash(pb, bb) & mask
		for {
			slot := table[h]
			if slot == 0 {
				if len(classes) >= maxClasses {
					return nil, nil
				}
				classes = append(classes, SpecClass{Power: power, LinkBandwidth: link})
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
				classes[k].Count++
				break
			}
			h = (h + 1) & mask
		}
	}
	return classes, classOf
}

// rehash builds a table of size slots (a power of two) holding classes,
// inserted in class-id order.
func rehash(classes []SpecClass, size int) []int32 {
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

// Digest is the content address of the platform the columns describe:
// Platform().Digest(), computed from the columns without expanding them.
// It is a pass of its own, after the columns are complete: the header
// comes first and holds the name, the bandwidth and the node count, which
// a JSON document may give after its nodes.
func (c *Columns) Digest() [sha256.Size]byte {
	h := sha256.New()
	buf := appendDigestHeader(make([]byte, 0, 2048), c.Name, c.Bandwidth, c.Len())
	for i := range c.Powers {
		name := c.name(i)
		if len(buf)+digestNodeSize(name) > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		power, link := c.Spec(i)
		buf = appendDigestNode(buf, name, power, link)
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Platform expands the columns into the platform they describe: one Node
// per index, named as NodeName names it. The expansion of valid columns is
// a valid platform, and that of decoded or converted columns is the
// platform they were decoded or converted from, field for field. Its own
// names are slices of the names column, not copies: one allocation for
// the node list, whatever the pool's size.
func (c *Columns) Platform() *Platform {
	p := &Platform{Name: c.Name, Bandwidth: c.Bandwidth, Nodes: make([]Node, len(c.Powers))}
	for i := range p.Nodes {
		power, link := c.Spec(i)
		p.Nodes[i] = Node{Name: c.name(i), Power: power, LinkBandwidth: link}
	}
	return p
}
