package platform

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Columns is a platform in columnar form — the one form the planners read a
// pool in: a power column and a link column, at sixteen bytes a node, plus
// node names. It describes exactly the platform Platform() expands it into.
//
// Names come one of two ways. Columns converted from a platform's node list
// (Platform.Columns, the one constructor that sets them) hold the nodes' own
// name strings, and that conversion is the platform's validation: such
// columns are valid by construction, and Lookup is the hash table that
// proved their names unique. Columns built as a literal (scenario
// generation) hold none: a node's name is then a pure function of its index,
// "<Name>-%04d", minted only when asked for, and Lookup is that function's
// inverse — injective by construction, so there is nothing to prove. Either
// way a consumer that reads a pool's specs and names a few hundred of its
// nodes (the planner) works on the columns and asks NodeName for those few
// hundred.
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

	// names holds each node's name in pool order; nil selects the generated
	// rule. index finds a name's node: an open-addressed table of node
	// indices plus one (zero is a free slot), at most half full, probed from
	// a hash of the name under seed — drawn per conversion, so no easier to
	// flood than a map.
	names []string
	index []uint32
	seed  maphash.Seed
}

// validBandwidth, validPower and validLink are the range predicates of a
// well-formed pool, shared by Platform.Columns and Columns.Validate: a
// platform bandwidth and a node power are finite and positive, a link
// override is finite and not negative (zero means "the platform default").
// NaN fails every comparison, so each predicate is phrased to fail on it.
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

// Columns converts the platform into columnar form, checking it on the way:
// a finite positive bandwidth, at least one node, and node by node a
// non-empty name, a finite positive power, a finite non-negative link
// override and a name no earlier node holds. The first failure is the error.
// The powers and links are copied; the names are the nodes' own strings, so
// later changes to p do not reach the columns.
func (p *Platform) Columns() (*Columns, error) {
	if !validBandwidth(p.Bandwidth) {
		return nil, errBandwidth(p.Name, p.Bandwidth)
	}
	n := len(p.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("platform %q: no nodes", p.Name)
	}
	c := &Columns{
		Name:      p.Name,
		Bandwidth: p.Bandwidth,
		Powers:    make([]float64, n),
		names:     make([]string, n),
		index:     make([]uint32, 1<<bits.Len(uint(2*n-1))),
		seed:      maphash.MakeSeed(),
	}
	for i := range p.Nodes {
		nd := &p.Nodes[i]
		if nd.Name == "" {
			return nil, fmt.Errorf("platform %q: node %d has empty name", p.Name, i)
		}
		if !validPower(nd.Power) {
			return nil, errPower(p.Name, nd.Name, nd.Power)
		}
		if !validLink(nd.LinkBandwidth) {
			return nil, errLink(p.Name, nd.Name, nd.LinkBandwidth)
		}
		h := c.slot(nd.Name)
		if c.index[h] != 0 {
			return nil, fmt.Errorf("platform %q: duplicate node name %q", p.Name, nd.Name)
		}
		c.index[h] = uint32(i + 1)
		c.names[i], c.Powers[i] = nd.Name, nd.Power
		// Compared as bits, so an explicit -0 survives the round trip (the
		// digest tells it from 0).
		if math.Float64bits(nd.LinkBandwidth) != 0 {
			if c.Links == nil {
				c.Links = make([]float64, n)
			}
			c.Links[i] = nd.LinkBandwidth
		}
	}
	return c, nil
}

// slot returns the index-table slot that holds name, or the free slot where
// the probe for it ends.
func (c *Columns) slot(name string) uint64 {
	mask := uint64(len(c.index) - 1)
	h := maphash.String(c.seed, name) & mask
	for c.index[h] != 0 && c.names[c.index[h]-1] != name {
		h = (h + 1) & mask
	}
	return h
}

// Validate range-checks generated columns — what Platform.Columns checks of
// a platform, with the same messages, minus the name checks the naming
// scheme makes unnecessary. It allocates nothing on a valid pool.
func (c *Columns) Validate() error {
	if !validBandwidth(c.Bandwidth) {
		return errBandwidth(c.Name, c.Bandwidth)
	}
	if len(c.Powers) == 0 {
		return fmt.Errorf("platform %q: no nodes", c.Name)
	}
	if c.Links != nil && len(c.Links) != len(c.Powers) {
		return fmt.Errorf("platform %q: %d link overrides for %d nodes", c.Name, len(c.Links), len(c.Powers))
	}
	for i, w := range c.Powers {
		if !validPower(w) {
			return errPower(c.Name, c.NodeName(i), w)
		}
		if c.Links != nil && !validLink(c.Links[i]) {
			return errLink(c.Name, c.NodeName(i), c.Links[i])
		}
	}
	return nil
}

// Len returns the pool size.
func (c *Columns) Len() int { return len(c.Powers) }

// minNameDigits is the zero-padded width of a generated name's index: "%04d".
const minNameDigits = 4

// NodeName returns the name of node i: its own, or "<Name>-" and the index,
// zero-padded to four digits (wider from 10 000 on). A generated name costs
// its own string and nothing else.
func (c *Columns) NodeName(i int) string {
	if c.names != nil {
		return c.names[i]
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
// table the conversion built. Over generated names it accepts exactly the
// strings NodeName produces — the whole of Name, a dash, and the index in
// its one canonical spelling (at least four digits, no sign, no leading
// zero beyond the padding) — so two names never resolve to one node.
func (c *Columns) Lookup(name string) (int, bool) {
	if c.names != nil {
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
	if c.names != nil {
		return c.names[i] < c.names[j]
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

// Platform expands the columns into the platform they describe: one Node
// per index, named by NodeName. The expansion of valid columns is a valid
// platform, and that of converted columns is the platform they were
// converted from, field for field.
func (c *Columns) Platform() *Platform {
	p := &Platform{Name: c.Name, Bandwidth: c.Bandwidth, Nodes: make([]Node, len(c.Powers))}
	for i := range p.Nodes {
		p.Nodes[i] = c.Node(i)
	}
	return p
}
