package platform

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// numberSeeds are FuzzDecodeNumber's seed corpus: the edges of exactNumber's
// fast path and the tokens it must leave to number and strconv.
var numberSeeds = []string{
	// Mantissas at 2^53: the last two are exact, the next falls back.
	"9007199254740991", "9007199254740992", "9007199254740993",
	"-9007199254740992", "900719925474099.2", "900719925474099.3", "9.007199254740993",
	// 15, 16 and 17 significant digits.
	"123456789012345", "1234567890123456", "12345678901234567",
	"0.123456789012345", "1.234567890123456", "0.12345678901234567",
	// 19 and 20 digits: the most exactNumber reads, and one more.
	"0.000000000000000001", "0.0000000000000000001", "1000000000000000000",
	// Fractions of 22 and 23 digits.
	"0.1234567890123456789012", "0.12345678901234567890123",
	// Zeros and signs.
	"0", "-0", "0.0", "-0.000", "0.5", "-2.5",
	// Integers too long for a uint64.
	"12345678901234567890123", "-99999999999999999999999",
	// Malformed tokens and what follows a number.
	"1.", "-", "01", "-01", "00", ".5", "+1", "1e", "1e+", "1.5x", "1 ", " 1", "",
	// Exponents, ranges and the churn body's padding.
	"1e5", "1E5", "8.125e2", "-1.5e-3", "1e400", "1e-400", "4.9e-324",
	"1.7976931348623157e308", "812.5000    ", "97.2500     ",
	// Not numbers at all.
	"null", "nul", `"1"`, "true", "[1]",
}

// FuzzDecodeNumber holds exactNumber to the path it short-cuts. On any
// bytes, a number it takes is the token number reads there, to the byte,
// and has strconv.ParseFloat's value for that token, bit for bit; a number
// it declines it leaves unread, for number and strconv. The decoder is
// otherwise one path, so a document decodes — or fails, message and byte
// offset included — as it does with every number read by strconv. Over a
// body {"bandwidth_mbps":<s>}, the decode fails exactly when
// encoding/json's does, and when s is one number the bandwidth is
// strconv.ParseFloat(s)'s bits.
func FuzzDecodeNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		if len(s) > 0 && (s[0] == '-' || isDigit(s[0])) {
			fast, slow := decoder{data: s}, decoder{data: s}
			v, ok := fast.exactNumber()
			num, err := slow.number()
			switch {
			case !ok && fast.off != 0:
				t.Fatalf("exactNumber(%q) declined after reading %d bytes", s, fast.off)
			case ok && (err != nil || fast.off != slow.off):
				t.Fatalf("exactNumber(%q) read %d bytes; number read %d (%v)", s, fast.off, slow.off, err)
			case ok:
				want, err := strconv.ParseFloat(string(num), 64)
				if err != nil || math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("exactNumber(%q) = %v (%#x); strconv.ParseFloat(%q) = %v (%#x), %v",
						s, v, math.Float64bits(v), num, want, math.Float64bits(want), err)
				}
			}
		}
		body := append(append([]byte(`{"bandwidth_mbps":`), s...), '}')
		d := decoder{data: body}
		err := d.document()
		if jsonErr := json.Unmarshal(body, new(Platform)); (err == nil) != (jsonErr == nil) {
			t.Fatalf("%q: decoder says %v, encoding/json says %v", body, err, jsonErr)
		}
		if err != nil || !json.Valid(s) || len(s) == 0 || s[0] != '-' && !isDigit(s[0]) {
			return
		}
		want, err := strconv.ParseFloat(strings.TrimRight(string(s), " \t\r\n"), 64)
		if err != nil {
			t.Fatalf("%q: the decoder reads %v; strconv.ParseFloat fails: %v", body, d.bandwidth, err)
		}
		if math.Float64bits(d.bandwidth) != math.Float64bits(want) {
			t.Fatalf("%q: bandwidth %v (%#x), strconv.ParseFloat says %v (%#x)",
				body, d.bandwidth, math.Float64bits(d.bandwidth), want, math.Float64bits(want))
		}
	})
}
