package platform

import (
	"fmt"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeJSON decodes a platform description from JSON bytes without
// validating it: the caller validates at its own boundary (ParseJSON does it
// at once; the registry does it when the platform is written).
//
// It is one pass over the bytes with no reflection, and it accepts exactly
// what json.Unmarshal into a Platform accepts and produces the same
// Platform (FuzzParseJSON holds it to that): object keys match their field
// case-insensitively, as encoding/json folds them; a null leaves a string or
// number field as it was and empties the node list; a repeated member
// decodes again into what the last one left; a type mismatch, an
// out-of-range number or a syntax error anywhere is an error; and nesting
// deeper than encoding/json's 10 000 levels is refused. Unknown members are
// skipped iteratively, so no input grows the stack. Decoded strings are
// copies: data may be reused once DecodeJSON returns.
func DecodeJSON(data []byte) (*Platform, error) {
	d := decoder{data: data}
	var p Platform
	if err := d.platform(&p); err != nil {
		return nil, err
	}
	if d.ws(); d.off < len(d.data) {
		return nil, d.syntaxError("after top-level value")
	}
	return &p, nil
}

// maxDepth is encoding/json's nesting limit: objects and arrays may be
// nested this deep and no deeper.
const maxDepth = 10000

// decoder is DecodeJSON's cursor over one document.
type decoder struct {
	data []byte
	off  int
	// depth counts the objects and arrays open at off; inArray[depth]
	// records, for the ones skip opened, whether it is an array.
	depth   int
	inArray [maxDepth/64 + 1]uint64
	// buf holds the last string that had to be unescaped.
	buf []byte
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

// platform decodes the top-level value into p.
func (d *decoder) platform(p *Platform) error {
	more, err := d.openObject("the platform")
	for more && err == nil {
		var k []byte
		if k, err = d.key(); err != nil {
			break
		}
		switch lookupField(k) {
		case fieldName:
			err = d.stringInto(&p.Name, "name")
		case fieldBandwidth:
			err = d.numberInto(&p.Bandwidth, "bandwidth_mbps")
		case fieldNodes:
			err = d.nodes(&p.Nodes)
		default:
			err = d.skip()
		}
		if err == nil {
			more, err = d.nextMember()
		}
	}
	return err
}

// nodes decodes the node array into *dst the way encoding/json decodes a
// slice: element i decodes into whatever *dst already holds at i (its
// backing array included), a null element leaves it as it is, the slice is
// cut to the elements decoded, an empty array is an empty non-nil slice,
// and null is a nil one.
func (d *decoder) nodes(dst *[]Node) error {
	if d.ws(); d.peek() == 'n' {
		*dst = nil
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
	s := *dst
	i := 0
	if d.ws(); d.peek() == ']' {
		d.off++
	} else {
		for {
			if i == len(s) {
				if i == cap(s) {
					// Growing keeps the whole backing array, as
					// reflect.Value.Grow does.
					s = slices.Grow(s, d.moreNodes(i, start))
				}
				s = s[:i+1]
			}
			if err := d.node(&s[i]); err != nil {
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
		s = []Node{}
	}
	*dst = s[:i]
	return nil
}

// maxNodeGrowth caps one growth of the node slice: a run of small nodes
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

// node decodes one element of the node array into n.
func (d *decoder) node(n *Node) error {
	more, err := d.openObject("a node")
	for more && err == nil {
		var k []byte
		if k, err = d.key(); err != nil {
			break
		}
		switch lookupField(k) {
		case fieldName:
			err = d.stringInto(&n.Name, "name")
		case fieldPower:
			err = d.numberInto(&n.Power, "power")
		case fieldLink:
			err = d.numberInto(&n.LinkBandwidth, "link_bandwidth_mbps")
		default:
			err = d.skip()
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

// stringInto decodes a string member into *dst; null leaves it.
func (d *decoder) stringInto(dst *string, key string) error {
	if d.ws(); d.peek() == 'n' {
		return d.literal("null")
	}
	if d.peek() != '"' {
		return d.typeError(key, "a string")
	}
	s, err := d.str()
	if err == nil {
		*dst = string(s)
	}
	return err
}

// numberInto decodes a number member into *dst as strconv.ParseFloat
// reads it; null leaves it, and a number out of float64's range is an
// error.
func (d *decoder) numberInto(dst *float64, key string) error {
	if d.ws(); d.peek() == 'n' {
		return d.literal("null")
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return d.typeError(key, "a number")
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

// ws skips JSON whitespace.
func (d *decoder) ws() {
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
