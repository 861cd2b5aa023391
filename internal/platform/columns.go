package platform

import (
	"crypto/sha256"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
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
	// as Node.LinkBandwidth carries it; nil means no node overrides.
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
		for i, w := range c.Powers {
			if !validPower(w) {
				return errPower(c.Name, c.name(i), w)
			}
			if c.Links != nil && !validLink(c.Links[i]) {
				return errLink(c.Name, c.name(i), c.Links[i])
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
	if c.Links != nil {
		link = c.Links[i]
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
	order, bits := rankDesc(keys)
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
	order, _ := rankDesc(keys)
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
// descBits, in index order. It is a stable LSD radix sort of the indices
// on those bits, a byte a pass from the least significant, between two
// halves of one buffer: one pass counts every byte position at once, and a
// position where every key holds the same byte is skipped, so a pool whose
// keys share their sign and top exponent bits is ranked in six passes or
// fewer. The passes read the bits through the index they move, which is
// cheaper than carrying them along: a pool's bits stay in cache.
//
//adeptvet:hotpath
func rankDesc(keys []float64) (order []int32, bits []uint64) {
	n := len(keys)
	bits = make([]uint64, n)
	buf := make([]int32, 2*n)
	src, dst := buf[:n:n], buf[n:]
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
// the pool (zeros resolved against Bandwidth), as Platform.LinkRange does.
func (c *Columns) LinkRange() (min, max float64) {
	if c.Links == nil {
		return c.Bandwidth, c.Bandwidth
	}
	for i, bw := range c.Links {
		if bw <= 0 {
			bw = c.Bandwidth
		}
		if i == 0 || bw < min {
			min = bw
		}
		if i == 0 || bw > max {
			max = bw
		}
	}
	return min, max
}

// Digest is the content address of the platform the columns describe:
// Platform().Digest(), computed from the columns without expanding them.
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
