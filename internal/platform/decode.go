package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// DecodeJSON decodes a platform description from JSON bytes into validated
// columns. What it returns is what json.Unmarshal into a Platform followed
// by Platform.Columns returns: the same platform, or the same verdict and
// message, a decode failure wrapped as "platform: decode: %w".
// FuzzParseJSON holds it to that. The columns hold copies: data may be
// reused once DecodeJSON returns.
//
// encoding/json is the definition, and a fast path reads the shape a pool
// is written in — every body json.Marshal, Platform.MarshalIndent and
// SaveJSON write — straight into columns: the power and link columns filled
// as the nodes are read, the node names appended to one byte arena that
// becomes the names column as one string, no node list and no string per
// name. It takes exactly the keys the schema spells, each node's name at
// most once and the node list at most once, strings with no escape and no
// invalid UTF-8, no null and numbers in float64's range. It refuses any
// other document before it is done, and DecodeJSON hands that document to
// json.Unmarshal whole, so a document outside that shape costs what
// json.Unmarshal costs. A decoded pool passes Columns.Validate, the one
// validation pass Platform.Columns runs too.
//
// Within the fast path, a node's "name" and "power" keys with the colon
// right after them are matched as literals, and a number with no exponent,
// at most 19 digits and a mantissa of at most 2^53 is read from its digits
// with one exact division (exactNumber); any other number goes through
// strconv.ParseFloat.
func DecodeJSON(data []byte) (*Columns, error) {
	d := decoder{data: data}
	if !d.document() {
		var p Platform
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("platform: decode: %w", err)
		}
		return p.Columns()
	}
	c := d.columns()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// errRefused is DecodeMember's one refusal: its caller decodes the whole
// object with encoding/json instead.
var errRefused = errors.New("platform: decode: not in the form the columns decoder reads")

// DecodeMember decodes the platform description that is the value of one
// member of the JSON object data — the member whose key is spelled exactly
// key, with no escape — by DecodeJSON's fast path, and returns it as
// columns, as decoded: not validated, so the caller runs Columns.Validate
// before it reads them as a pool. It returns where the value starts and
// ends in data too, so that the rest of the object can be decoded without
// it.
//
// It refuses what DecodeJSON's fast path refuses, and whatever
// encoding/json might read another way: an object with no such member or
// with two, another key that folds to key (told by bytes.EqualFold, which is
// encoding/json's own key matching), a key with an escape, and a null
// value. The object's other members are stepped over by their strings and
// brackets alone, unchecked, and nothing after its closing brace is read:
// the caller decodes the rest of the object with encoding/json, which checks
// them. key is lower-case ASCII.
func DecodeMember(data []byte, key string) (c *Columns, start, end int, err error) {
	d := decoder{data: data}
	found := false
	more, ok := d.open('{', '}')
	for more && ok {
		var k []byte
		switch k, ok = d.key(); {
		case !ok:
		case string(k) == key && !found:
			found = true
			d.ws()
			start = d.off
			ok = d.platform()
			end = d.off
		case bytes.EqualFold(k, []byte(key)):
			ok = false
		default:
			ok = d.skip()
		}
		if ok {
			more, ok = d.next('}')
		}
	}
	if !ok || !found {
		return nil, 0, 0, errRefused
	}
	return d.columns(), start, end, nil
}

// decoder is the fast path's cursor over one document, and the platform it
// has decoded so far. Each of its steps reports whether it took what it
// found; the first that does not refuses the document.
type decoder struct {
	data []byte
	off  int

	name      string
	bandwidth float64
	// listed records that the node list has been read.
	listed bool
	// The node list is kept column by column. links stays nil until a node
	// carries a link. The names are appended to one arena in node order, and
	// node i's name ends at ends[i], starting where node i-1's ends.
	powers, links []float64
	ends          []uint32
	names         strings.Builder
}

// document reads the whole input: the platform and nothing after it but
// blanks.
func (d *decoder) document() bool {
	if !d.platform() {
		return false
	}
	d.ws()
	return d.off == len(d.data)
}

// platform reads the platform object at off.
func (d *decoder) platform() bool {
	more, ok := d.open('{', '}')
	for more && ok {
		var k []byte
		if k, ok = d.key(); !ok {
			break
		}
		switch string(k) {
		case "name":
			var s []byte
			if s, ok = d.str(); ok {
				d.name = string(s)
			}
		case "bandwidth_mbps":
			ok = d.number(&d.bandwidth)
		case "nodes":
			ok = !d.listed && d.nodes()
			d.listed = true
		default:
			return false
		}
		if ok {
			more, ok = d.next('}')
		}
	}
	return ok
}

// nodes reads the node list.
func (d *decoder) nodes() bool {
	d.ws()
	start := d.off
	more, ok := d.open('[', ']')
	for more && ok {
		d.appendNode(start)
		if ok = d.node(len(d.powers) - 1); ok {
			more, ok = d.next(']')
		}
	}
	return ok
}

// nameGuess is the name length the arena is first grown by, per node,
// before there is an average to go by.
const nameGuess = 16

// appendNode appends a zero node — no name, no power, no link — to the
// columns. A full column grows every column at once, by moreNodes and the
// arena by as many name bytes as that many nodes hold at the average so far
// (no more than the input has left: every name byte is at least one input
// byte).
func (d *decoder) appendNode(start int) {
	if full(d.powers) || full(d.ends) || d.links != nil && full(d.links) {
		more := d.moreNodes(len(d.powers), start)
		d.powers = slices.Grow(d.powers, more)
		d.ends = slices.Grow(d.ends, more)
		if d.links != nil {
			d.links = slices.Grow(d.links, more)
		}
		perName := nameGuess
		if len(d.powers) > 0 {
			perName = d.names.Len()/len(d.powers) + 1
		}
		d.names.Grow(min(more*perName, len(d.data)-d.off))
	}
	d.powers = append(d.powers, 0)
	d.ends = append(d.ends, uint32(d.names.Len()))
	if d.links != nil {
		d.links = append(d.links, 0)
	}
}

func full[S ~[]E, E any](s S) bool { return len(s) == cap(s) }

// maxNodeGrowth caps one growth of the node columns: a run of small nodes
// followed by a long tail of anything else must not allocate far more
// than the tail could hold.
const maxNodeGrowth = 1 << 16

// moreNodes guesses how many more nodes the array at start holds, having
// decoded the first n of them up to off: a few when there is nothing to go
// by yet, else as many as the bytes left hold at the density so far, and a
// little over, so a pool of similar nodes is allocated once, not grown.
func (d *decoder) moreNodes(n, start int) int {
	if n == 0 {
		return 8
	}
	more := (len(d.data) - d.off) * n / (d.off - start)
	return min(more+more/64+1, maxNodeGrowth)
}

// columns returns the decoded platform as columns, unvalidated.
func (d *decoder) columns() *Columns {
	return &Columns{Name: d.name, Bandwidth: d.bandwidth, Powers: d.powers, Links: d.links, ends: d.ends, names: d.names.String()}
}

// field is a member of a node.
type field uint8

const (
	fieldUnknown field = iota
	fieldName
	fieldPower
	fieldLink
)

// node reads node i, the last of the columns, into its zero.
func (d *decoder) node(i int) bool {
	named := false
	more, ok := d.open('{', '}')
	for more && ok {
		switch d.nodeKey() {
		case fieldName:
			var s []byte
			s, ok = d.str()
			if ok = ok && !named && uint64(d.names.Len()+len(s)) <= maxNameBytes; ok {
				d.names.Write(s)
				d.ends[i] = uint32(d.names.Len())
				named = true
			}
		case fieldPower:
			ok = d.number(&d.powers[i])
		case fieldLink:
			ok = d.link(i)
		default:
			return false
		}
		if ok {
			more, ok = d.next('}')
		}
	}
	return ok
}

// nodeKey consumes a node member's key and its colon, and names the member
// it selects. "name" and "power" with the colon right after the closing
// quote are matched as literals; any other spelling is read by key. Each
// literal is one 8-byte word, which the compiler compares inline: a name's
// includes the quote that opens its value, which stays to be read.
func (d *decoder) nodeKey() field {
	d.ws()
	switch {
	case d.at(`"name":"`):
		d.off += len(`"name":`)
		return fieldName
	case d.at(`"power":`):
		d.off += len(`"power":`)
		return fieldPower
	}
	k, _ := d.key()
	switch string(k) {
	case "name":
		return fieldName
	case "power":
		return fieldPower
	case "link_bandwidth_mbps":
		return fieldLink
	}
	return fieldUnknown
}

// link reads node i's link override; its column is allocated when the
// first node carries one.
func (d *decoder) link(i int) bool {
	var v float64
	if !d.number(&v) {
		return false
	}
	if d.links == nil && math.Float64bits(v) != 0 {
		d.links = make([]float64, len(d.powers), cap(d.powers))
	}
	if d.links != nil {
		d.links[i] = v
	}
	return true
}

// open consumes the opening bracket c of an object or array and reports
// whether a member or element follows, consuming the closing bracket end
// when none does.
func (d *decoder) open(c, end byte) (more, ok bool) {
	if d.ws(); d.peek() != c {
		return false, false
	}
	d.off++
	if d.ws(); d.peek() == end {
		d.off++
		return false, true
	}
	return true, true
}

// next consumes what follows a member or an element: a comma (another
// follows) or the closing bracket end.
func (d *decoder) next(end byte) (more, ok bool) {
	d.ws()
	switch d.peek() {
	case ',':
		d.off++
		return true, true
	case end:
		d.off++
		return false, true
	}
	return false, false
}

// key consumes a member's key and its colon, and returns the key as str
// does.
func (d *decoder) key() ([]byte, bool) {
	k, ok := d.str()
	if d.ws(); !ok || d.peek() != ':' {
		return nil, false
	}
	d.off++
	return k, true
}

// number reads the number at off into *dst as encoding/json reads it into
// a float64. A number exactNumber can read exactly is read straight from
// its digits; any other goes through numberToken and strconv.
func (d *decoder) number(dst *float64) bool {
	d.ws()
	if v, ok := d.exactNumber(); ok {
		*dst = v
		return true
	}
	start := d.off
	if !d.numberToken() {
		return false
	}
	v, err := strconv.ParseFloat(string(d.data[start:d.off]), 64)
	*dst = v
	return err == nil
}

// maxExact is the largest mantissa exactNumber takes: every integer up to
// 2^53 is a float64.
const maxExact = 1 << 53

// maxExactDigits is the most digits exactNumber reads: any 19 of them fit
// a uint64.
const maxExactDigits = 19

// pow10 holds the powers of ten a number of maxExactDigits digits can be
// divided by — all exact in float64, which holds every power up to 1e22.
var pow10 = [maxExactDigits]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// exactNumber consumes the number at off when it has no exponent part, at
// most maxExactDigits digits and a decimal mantissa m ≤ 2^53 (its digits
// with the point taken out), and returns its value; otherwise it consumes
// nothing and reports false. Such a number is m / 10^k, k <
// maxExactDigits, with both operands exact in float64, so the one
// correctly rounded division is the float64 nearest the decimal —
// strconv.ParseFloat's bits (Clinger's fast path). Like numberToken, it
// stops at the first byte that cannot continue the number, so "01" reads 0
// and leaves the 1 to its caller; a malformed number ("1.", "-") it leaves
// to numberToken.
func (d *decoder) exactNumber() (float64, bool) {
	data, i := d.data, d.off
	neg := d.peek() == '-'
	if neg {
		i++
	}
	var m uint64
	start := i
	switch {
	case i == len(data):
		return 0, false
	case data[i] == '0':
		i++
	default:
		for i < len(data) && isDigit(data[i]) {
			m = m*10 + uint64(data[i]-'0')
			i++
		}
		if i == start {
			return 0, false
		}
	}
	frac := 0
	if i < len(data) && data[i] == '.' {
		i++
		point := i
		for i < len(data) && isDigit(data[i]) {
			m = m*10 + uint64(data[i]-'0')
			i++
		}
		if frac = i - point; frac == 0 {
			return 0, false
		}
		start++ // the point is not a digit
	}
	if i-start > maxExactDigits || m > maxExact || i < len(data) && data[i]|0x20 == 'e' {
		return 0, false
	}
	v := float64(m) / pow10[frac]
	if neg {
		v = -v
	}
	d.off = i
	return v, true
}

// numberToken consumes a number in JSON's grammar.
func (d *decoder) numberToken() bool {
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return false
	}
	if d.peek() == '.' {
		d.off++
		if !isDigit(d.peek()) {
			return false
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !isDigit(d.peek()) {
			return false
		}
		d.digits()
	}
	return true
}

func (d *decoder) digits() {
	for isDigit(d.peek()) {
		d.off++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skip steps over one value by its strings and brackets alone: it stops
// at the first comma or closing bracket outside a string that the value
// does not open, and checks nothing else.
func (d *decoder) skip() bool {
	depth := 0
	for i := d.off; i < len(d.data); i++ {
		switch d.data[i] {
		case '"':
			for i++; i < len(d.data) && d.data[i] != '"'; i++ {
				if d.data[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']', ',':
			if depth == 0 {
				d.off = i
				return true
			}
			if d.data[i] != ',' {
				depth--
			}
		}
	}
	return false
}

// str consumes the string at off, after blanks, and returns its bytes,
// refusing one that holds an escape, a control character or invalid UTF-8:
// its bytes are then not the string encoding/json decodes.
func (d *decoder) str() ([]byte, bool) {
	if d.ws(); d.peek() != '"' {
		return nil, false
	}
	start := d.off + 1
	for i := start; i < len(d.data); {
		for i < len(d.data) && plainASCII[d.data[i]] {
			i++
		}
		if i == len(d.data) {
			break
		}
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], true
		case c < utf8.RuneSelf:
			return nil, false
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			i += size
		}
	}
	return nil, false
}

// plainASCII holds the bytes a string may contain as they are: ASCII, but
// no control character, quote or backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.off < len(d.data) && isSpace[d.data[d.off]] {
		d.off++
	}
}

var isSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// peek returns the byte at off, or 0 at the end of the input (where NUL,
// which is never valid JSON, cannot be mistaken for a token).
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// at reports whether s is at off.
func (d *decoder) at(s string) bool {
	return len(d.data)-d.off >= len(s) && string(d.data[d.off:d.off+len(s)]) == s
}
