package platform

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeJSON decodes a platform description from JSON bytes straight into
// columns and validates them: the power and link columns are filled as the
// nodes are read, and the node names are appended to one byte arena that
// becomes the names column as one string — no node list, no string per
// name. A decoded pool then passes Columns.Validate, the one validation
// pass Platform.Columns runs too, so the verdict and the message are those
// of json.Unmarshal into a Platform followed by Platform.Columns.
//
// It is one pass over the bytes with no reflection, and it accepts exactly
// what json.Unmarshal into a Platform accepts and produces the same
// platform (FuzzParseJSON holds it to that): object keys match their field
// case-insensitively, as encoding/json folds them; a null leaves a string or
// number field as it was and empties the node list; a repeated member
// decodes again into what the last one left — a repeated node list into the
// backing array the last one left, elements past its end included; a type
// mismatch, an out-of-range number or a syntax error anywhere is an error
// (prefixed "platform: decode: "); and nesting deeper than encoding/json's
// 10 000 levels is refused. Unknown members are skipped iteratively, so no
// input grows the stack. The columns hold copies: data may be reused once
// DecodeJSON returns.
//
// Two fast paths take the shape a pool is written in, and each falls back
// to the general path on anything else, with its verdict and message. A
// node's "name" and "power" keys, spelled exactly so with the colon right
// after them, are matched as literals; any other key, and these in another
// case, with an escape or with a blank before the colon, is read and
// folded as above. A number with no exponent, at most 19 digits and a
// mantissa of at most 2^53 is read from its digits with one exact
// division (exactNumber); any other — an exponent, more digits, a
// malformed token — goes through strconv.ParseFloat. Validation stays one
// pass over the finished columns: checking each node as its object closes
// measured slower, the name table's probes costing the same either way,
// and a document may give its bandwidth after its nodes.
//
// DecodeMember is the same pass over a platform that is a member of a
// larger object, in strict mode: there an unknown member is refused, not
// skipped, as encoding/json's DisallowUnknownFields refuses it.
func DecodeJSON(data []byte) (*Columns, error) {
	d := decoder{data: data}
	if err := d.document(); err != nil {
		return nil, err
	}
	c := d.columns()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeMember decodes the platform description that is the value of one
// member of the JSON object data — the member whose key is spelled exactly
// key, with no escape — in strict mode, and returns it as columns, as
// decoded: not validated, so the caller runs Columns.Validate before it
// reads them as a pool. It returns where the value starts and ends in data
// too, so that the rest of the object can be decoded without it.
//
// It is DecodeJSON's pass, taking the platform as encoding/json with
// DisallowUnknownFields takes it: a member of the platform or of a node that
// the schema does not know is an error, not skipped. The object's other
// members are syntax-checked and skipped, and nothing after its closing
// brace is read. It refuses, rather than guess, whatever encoding/json might
// read another way: an object with no such member or with two, any other
// key that folds to key (encoding/json matches a field case-insensitively),
// a null value, and anything DecodeJSON's decoding refuses, anywhere in the
// object. key is lower-case ASCII.
func DecodeMember(data []byte, key string) (c *Columns, start, end int, err error) {
	d := decoder{data: data, strict: true}
	if start, end, err = d.member(key); err != nil {
		return nil, 0, 0, err
	}
	return d.columns(), start, end, nil
}

// member decodes the object at off, its member spelled exactly key as the
// platform and every other member skipped, and returns the span of that
// member's value.
func (d *decoder) member(key string) (start, end int, err error) {
	quoted := `"` + key + `"`
	found := false
	more, err := d.openObject("the request")
	for more && err == nil {
		d.ws()
		exact := d.at(d.off, quoted)
		var k []byte
		if k, err = d.key(); err != nil {
			break
		}
		switch {
		case exact && !found:
			found = true
			if d.ws(); d.peek() == 'n' {
				return 0, 0, fmt.Errorf("platform: decode: %s is null", key)
			}
			start = d.off
			err = d.platform()
			end = d.off
		case foldEqual(k, key):
			return 0, 0, fmt.Errorf("platform: decode: a second member folds to %s at byte %d", key, d.off)
		default:
			err = d.skip()
		}
		if err == nil {
			more, err = d.nextMember()
		}
	}
	if err == nil && !found {
		err = fmt.Errorf("platform: decode: no member %s", key)
	}
	return start, end, err
}

// other consumes the value of a member the schema does not know: skipped,
// or in strict mode refused.
func (d *decoder) other() error {
	if d.strict {
		return fmt.Errorf("platform: decode: unknown member before byte %d", d.off)
	}
	return d.skip()
}

// maxDepth is encoding/json's nesting limit: objects and arrays may be
// nested this deep and no deeper.
const maxDepth = 10000

// decoder is DecodeJSON's cursor over one document, and the platform it
// has decoded so far.
type decoder struct {
	data []byte
	off  int
	// strict refuses a member the schema does not know (DecodeMember).
	strict bool
	// depth counts the objects and arrays open at off; inArray[depth]
	// records, for the ones skip opened, whether it is an array.
	depth   int
	inArray [maxDepth/64 + 1]uint64
	// buf holds the last string that had to be unescaped.
	buf []byte

	name      string
	bandwidth float64
	// The node list is kept the way encoding/json keeps a slice it decodes
	// into, column by column: the backing array holds len(powers) elements
	// — every element a node list has reached since the array was last
	// replaced, the ones past n cut off by the last list but revealed by
	// the next — and the node list is its first n. links stays nil until a
	// link is set. The names are appended to one arena in the order they
	// are decoded. While that is element order, one name per element, the
	// arena is the names column as it stands and node i's name ends at
	// ends[i], starting where node i-1's ends; starts is nil. A name that
	// arrives out of that order allocates starts, and node i's name is then
	// names[starts[i]:ends[i]].
	n             int
	powers, links []float64
	starts, ends  []uint32
	names         strings.Builder
}

// field is a member of the platform schema.
type field uint8

const (
	fieldUnknown field = iota
	fieldName
	fieldBandwidth
	fieldNodes
	fieldPower
	fieldLink
)

// fieldKeys are the members' JSON keys, indexed by field.
var fieldKeys = [...]string{
	fieldName:      "name",
	fieldBandwidth: "bandwidth_mbps",
	fieldNodes:     "nodes",
	fieldPower:     "power",
	fieldLink:      "link_bandwidth_mbps",
}

// lookupField names the member a decoded key selects: an exact match, else
// a match under encoding/json's case folding.
func lookupField(key []byte) field {
	switch string(key) {
	case "name":
		return fieldName
	case "power":
		return fieldPower
	case "link_bandwidth_mbps":
		return fieldLink
	case "nodes":
		return fieldNodes
	case "bandwidth_mbps":
		return fieldBandwidth
	}
	for f := fieldName; f <= fieldLink; f++ {
		if foldEqual(key, fieldKeys[f]) {
			return f
		}
	}
	return fieldUnknown
}

// foldEqual reports whether key equals the lower-case ASCII name under
// encoding/json's folding, which maps every rune to the smallest member of
// its unicode.SimpleFold orbit: ASCII letters match either case, and the
// only other runes that fold onto one are the Kelvin sign (k) and the long
// s (s).
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		r, size := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key[i:])
		}
		i += size
		if foldRune(r) != foldRune(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// document decodes the whole input: the platform and nothing after it but
// blanks.
func (d *decoder) document() error {
	if err := d.platform(); err != nil {
		return err
	}
	if d.ws(); d.off < len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

// platform decodes the top-level value.
func (d *decoder) platform() error {
	more, err := d.openObject("the platform")
	for more && err == nil {
		var k []byte
		if k, err = d.key(); err != nil {
			break
		}
		switch lookupField(k) {
		case fieldName:
			var s []byte
			if s, err = d.stringValue("name"); s != nil {
				d.name = string(s)
			}
		case fieldBandwidth:
			err = d.numberInto(&d.bandwidth, "bandwidth_mbps")
		case fieldNodes:
			err = d.nodes()
		default:
			err = d.other()
		}
		if err == nil {
			more, err = d.nextMember()
		}
	}
	return err
}

// nodes decodes the node array the way encoding/json decodes a slice:
// element i decodes into whatever the backing array already holds at i, a
// null element leaves it as it is, and the list is cut to the elements
// decoded; an empty array and null both replace the backing array with an
// empty one.
func (d *decoder) nodes() error {
	if d.ws(); d.peek() == 'n' {
		d.reset()
		return d.literal("null")
	}
	if d.peek() != '[' {
		return d.typeError("nodes", "an array")
	}
	start := d.off
	d.off++
	if err := d.push(true); err != nil {
		return err
	}
	i := 0
	if d.ws(); d.peek() == ']' {
		d.off++
	} else {
		for {
			if i == len(d.powers) {
				d.appendNode(i, start)
			}
			if err := d.node(i); err != nil {
				return err
			}
			i++
			d.ws()
			if c := d.peek(); c == ']' {
				d.off++
				break
			} else if c != ',' {
				return d.syntaxError("after array element")
			}
			d.off++
		}
	}
	d.depth--
	if i == 0 {
		d.reset()
	}
	d.n = i
	return nil
}

// reset replaces the backing array with an empty one. Nothing refers to the
// names decoded so far any more, so their arena goes with it.
func (d *decoder) reset() {
	d.n = 0
	d.powers, d.ends, d.starts = d.powers[:0], d.ends[:0], nil
	if d.links != nil {
		d.links = d.links[:0]
	}
	d.names.Reset()
}

// nameGuess is the name length the arena is first grown by, per node,
// before there is an average to go by.
const nameGuess = 16

// appendNode appends a zero node — no name, no power, no link — to the
// backing array. A full array grows every column at once, by moreNodes and
// by as many name bytes as that many nodes hold at the average so far (no
// more than the input has left: every name byte is at least one input
// byte), keeping every element, as reflect.Value.Grow does.
func (d *decoder) appendNode(i, start int) {
	if full(d.powers) || full(d.ends) || d.starts != nil && full(d.starts) || d.links != nil && full(d.links) {
		more := d.moreNodes(i, start)
		d.powers = slices.Grow(d.powers, more)
		d.ends = slices.Grow(d.ends, more)
		if d.starts != nil {
			d.starts = slices.Grow(d.starts, more)
		}
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
	if d.starts == nil {
		d.ends = append(d.ends, uint32(d.names.Len()))
	} else {
		d.starts = append(d.starts, 0)
		d.ends = append(d.ends, 0)
	}
	if d.links != nil {
		d.links = append(d.links, 0)
	}
}

func full[S ~[]E, E any](s S) bool { return len(s) == cap(s) }

// setName appends name to the arena as node i's name. Naming the last
// element for the first time keeps the names in element order; any other
// name switches to spans.
func (d *decoder) setName(i int, name []byte) error {
	if uint64(d.names.Len()+len(name)) > maxNameBytes {
		return fmt.Errorf("platform: decode: node names exceed %d bytes", maxNameBytes)
	}
	if d.starts == nil && (i != len(d.ends)-1 || i > 0 && d.ends[i] != d.ends[i-1] || i == 0 && d.ends[0] != 0) {
		d.starts = make([]uint32, len(d.ends), cap(d.ends))
		for k := 1; k < len(d.ends); k++ {
			d.starts[k] = d.ends[k-1]
		}
	}
	if d.starts != nil {
		d.starts[i] = uint32(d.names.Len())
	}
	d.names.Write(name)
	d.ends[i] = uint32(d.names.Len())
	return nil
}

// columns returns the decoded platform as columns, unvalidated. Names in
// element order are the arena as it stands; spans are copied out of it in
// node order.
func (d *decoder) columns() *Columns {
	n := d.n
	c := &Columns{Name: d.name, Bandwidth: d.bandwidth, Powers: d.powers[:n], ends: d.ends[:n:n], names: d.names.String()}
	if d.links != nil {
		c.Links = d.links[:n]
	}
	if d.starts == nil {
		return c
	}
	size := 0
	for i := range n {
		size += int(d.ends[i] - d.starts[i])
	}
	var b strings.Builder
	b.Grow(size)
	for i := range n {
		b.WriteString(c.names[d.starts[i]:d.ends[i]])
		c.ends[i] = uint32(b.Len())
	}
	c.names = b.String()
	return c
}

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

// node decodes element i of the node array over what it holds.
func (d *decoder) node(i int) error {
	more, err := d.openObject("a node")
	for more && err == nil {
		var f field
		if f, err = d.nodeKey(); err != nil {
			break
		}
		switch f {
		case fieldName:
			var s []byte
			if s, err = d.stringValue("name"); s != nil {
				err = d.setName(i, s)
			}
		case fieldPower:
			err = d.numberInto(&d.powers[i], "power")
		case fieldLink:
			err = d.link(i)
		default:
			err = d.other()
		}
		if err == nil {
			more, err = d.nextMember()
		}
	}
	return err
}

// openObject consumes the start of an object and reports whether a member
// follows; null consumes the literal and reports none. Anything else is a
// type error naming what.
func (d *decoder) openObject(what string) (bool, error) {
	if d.ws(); d.peek() == 'n' {
		return false, d.literal("null")
	}
	if d.peek() != '{' {
		return false, d.typeError(what, "an object")
	}
	d.off++
	if err := d.push(false); err != nil {
		return false, err
	}
	if d.ws(); d.peek() == '}' {
		d.off++
		d.depth--
		return false, nil
	}
	return true, nil
}

// nodeKey consumes a node member's key and its colon, and names the member
// it selects. "name" and "power" as they are written — exact case, no
// escape, the colon right after the closing quote — are matched as
// literals; any other key or spelling is read by key and looked up by
// lookupField. Each literal is one 8-byte word, which the compiler
// compares inline: a name's includes the quote that opens its value,
// which stays to be read.
func (d *decoder) nodeKey() (field, error) {
	d.ws()
	switch {
	case d.at(d.off, `"name":"`):
		d.off += len(`"name":`)
		return fieldName, nil
	case d.at(d.off, `"power":`):
		d.off += len(`"power":`)
		return fieldPower, nil
	}
	k, err := d.key()
	return lookupField(k), err
}

// key consumes a member's key and its colon, and returns the key as str
// does.
func (d *decoder) key() ([]byte, error) {
	if d.ws(); d.peek() != '"' {
		return nil, d.syntaxError("looking for beginning of object key string")
	}
	k, err := d.str()
	if err != nil {
		return nil, err
	}
	if d.ws(); d.peek() != ':' {
		return nil, d.syntaxError("after object key")
	}
	d.off++
	return k, nil
}

// nextMember consumes what follows a member's value: a comma (another
// member follows) or the closing brace.
func (d *decoder) nextMember() (bool, error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.off++
		return true, nil
	case '}':
		d.off++
		d.depth--
		return false, nil
	}
	return false, d.syntaxError("after object key:value pair")
}

// stringValue decodes a string member's value as str returns it — never
// nil, even empty — or nil for null, which leaves the field as it was.
func (d *decoder) stringValue(key string) ([]byte, error) {
	if d.ws(); d.peek() == 'n' {
		return nil, d.literal("null")
	}
	if d.peek() != '"' {
		return nil, d.typeError(key, "a string")
	}
	return d.str()
}

// link decodes node i's link override; its column is allocated when the
// first node carries one.
func (d *decoder) link(i int) error {
	var v float64
	if d.links != nil {
		v = d.links[i]
	}
	if err := d.numberInto(&v, "link_bandwidth_mbps"); err != nil {
		return err
	}
	if d.links == nil && math.Float64bits(v) != 0 {
		d.links = make([]float64, len(d.powers), cap(d.powers))
	}
	if d.links != nil {
		d.links[i] = v
	}
	return nil
}

// numberInto decodes a number member into *dst as strconv.ParseFloat
// reads it; null leaves it, and a number out of float64's range is an
// error. A number exactNumber can read exactly is read straight from its
// digits; any other goes through number and strconv.
func (d *decoder) numberInto(dst *float64, key string) error {
	if d.ws(); d.peek() == 'n' {
		return d.literal("null")
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return d.typeError(key, "a number")
	}
	if v, ok := d.exactNumber(); ok {
		*dst = v
		return nil
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return fmt.Errorf("platform: decode: %s: number %s is out of float64 range", key, num)
	}
	*dst = v
	return nil
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

// exactNumber consumes the number at off, which starts with '-' or a
// digit, when it has no exponent part, at most maxExactDigits digits and
// a decimal mantissa m ≤ 2^53 (its digits with the point taken out), and
// returns its value; otherwise it consumes nothing and reports false. Such
// a number is m / 10^k, k < maxExactDigits, with both operands exact in
// float64, so the one correctly rounded division is the float64 nearest
// the decimal — strconv.ParseFloat's bits (Clinger's fast path). Like
// number, it stops at the first byte that cannot continue the number, so
// "01" reads 0 and leaves the 1 to its caller; a malformed number ("1.",
// "-") it leaves to number, which reports it.
func (d *decoder) exactNumber() (float64, bool) {
	data, i := d.data, d.off
	neg := data[i] == '-'
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

// skip consumes one value of any shape, checking its syntax. It keeps the
// open containers in d.inArray rather than on the goroutine stack, so the
// nesting depth costs no stack and is bounded by maxDepth alone.
func (d *decoder) skip() error {
	base := d.depth
	for {
		// A value starts here.
		d.ws()
		switch d.peek() {
		case '{':
			d.off++
			if err := d.push(false); err != nil {
				return err
			}
			if d.ws(); d.peek() != '}' {
				if _, err := d.key(); err != nil {
					return err
				}
				continue
			}
			d.off++
			d.depth--
		case '[':
			d.off++
			if err := d.push(true); err != nil {
				return err
			}
			if d.ws(); d.peek() != ']' {
				continue
			}
			d.off++
			d.depth--
		case '"':
			if _, err := d.str(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if _, err := d.number(); err != nil {
				return err
			}
		}
		// A value ended: close containers until one continues.
		for {
			if d.depth == base {
				return nil
			}
			array := d.inArray[d.depth/64]&(1<<(d.depth%64)) != 0
			d.ws()
			c := d.peek()
			if c == ',' {
				d.off++
				if !array {
					if _, err := d.key(); err != nil {
						return err
					}
				}
				break
			}
			if array && c != ']' || !array && c != '}' {
				if array {
					return d.syntaxError("after array element")
				}
				return d.syntaxError("after object key:value pair")
			}
			d.off++
			d.depth--
		}
	}
}

// push opens a container one level deeper, refusing to pass maxDepth.
func (d *decoder) push(array bool) error {
	if d.depth == maxDepth {
		return fmt.Errorf("platform: decode: nesting exceeds %d levels at byte %d", maxDepth, d.off)
	}
	d.depth++
	word, bit := d.depth/64, uint64(1)<<(d.depth%64)
	if array {
		d.inArray[word] |= bit
	} else {
		d.inArray[word] &^= bit
	}
	return nil
}

// ws skips JSON whitespace. It returns at once on a byte that is not a
// blank, which is where nearly every call lands.
func (d *decoder) ws() {
	if d.off < len(d.data) && isSpace[d.data[d.off]] {
		d.blanks()
	}
}

// blanks skips the run of blanks at off.
func (d *decoder) blanks() {
	for d.off < len(d.data) && isSpace[d.data[d.off]] {
		d.off++
	}
}

var isSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// plainASCII holds the bytes a string may contain as they are: ASCII, but
// no control character, quote or backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// peek returns the byte at off, or 0 at the end of the input (where NUL,
// which is never valid JSON, cannot be mistaken for a token).
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// literal consumes the literal word, which must be at off.
func (d *decoder) literal(word string) error {
	if !d.at(d.off, word) {
		return d.syntaxError("in literal " + word)
	}
	d.off += len(word)
	return nil
}

// at reports whether s is at byte i of the input.
func (d *decoder) at(i int, s string) bool {
	return len(d.data)-i >= len(s) && string(d.data[i:i+len(s)]) == s
}

// number consumes a number in JSON's grammar and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.syntaxError("looking for beginning of value")
	}
	if d.peek() == '.' {
		d.off++
		if !isDigit(d.peek()) {
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !isDigit(d.peek()) {
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		d.digits()
	}
	return d.data[start:d.off], nil
}

func (d *decoder) digits() {
	for isDigit(d.peek()) {
		d.off++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// str consumes a string (its opening quote at off) and returns its decoded
// bytes: the input itself when the string holds no escape and no invalid
// UTF-8, else d.buf, which the next escaped string overwrites.
func (d *decoder) str() ([]byte, error) {
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
			return d.data[start:i], nil
		case c == '\\':
			return d.unquote(start)
		case c < ' ':
			d.off = i
			return nil, d.syntaxError("in string literal")
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start)
			}
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.syntaxError("in string literal")
}

// unquote decodes the string whose contents start at start into d.buf as
// encoding/json does: escapes resolved, a surrogate pair joined, and a lone
// surrogate or an invalid UTF-8 byte replaced by U+FFFD.
func (d *decoder) unquote(start int) ([]byte, error) {
	b := d.buf[:0]
	i := start
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.off = i + 1
			d.buf = b
			return b, nil
		case c == '\\':
			if i+1 == len(d.data) {
				i++ // the input ends inside the escape
				continue
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i+2:])
				if r < 0 {
					d.off = i + 2
					return nil, d.syntaxError("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if d.at(i, `\u`) {
						r2 = hex4(d.data[i+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i + 1
				return nil, d.syntaxError("in string escape code")
			}
			i += 2
		case c < ' ':
			d.off = i
			return nil, d.syntaxError("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.syntaxError("in string literal")
}

// hex4 reads four hex digits, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// syntaxError reports the byte at off (or the end of the input) as invalid
// in context.
func (d *decoder) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("platform: decode: unexpected end of JSON input")
	}
	return fmt.Errorf("platform: decode: invalid character %q %s at byte %d", d.data[d.off], context, d.off)
}

// typeError reports a value of the wrong kind at off.
func (d *decoder) typeError(what, want string) error {
	if d.off >= len(d.data) {
		return d.syntaxError("")
	}
	return fmt.Errorf("platform: decode: %s: want %s, got %q at byte %d", what, want, d.data[d.off], d.off)
}
