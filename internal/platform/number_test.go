package platform_test

import (
	"encoding/json"
	"testing"

	"adept/internal/platform"
)

// numberSeeds are FuzzDecodeNumber's seed corpus: the edges of exactNumber's
// exact division and the tokens it must leave to strconv or refuse.
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

// FuzzDecodeNumber holds the fast path's numbers to encoding/json's: over
// a body that gives s as the bandwidth and as a node's power (read after a
// literal key), if the fast path takes the body, json.Unmarshal takes it
// too, with the same bits in both fields: the two digest alike, and the
// digest holds every float's bits.
func FuzzDecodeNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		body := []byte(`{"bandwidth_mbps":` + string(s) + `,"nodes":[{"power":` + string(s) + `}]}`)
		c, ok := platform.DecodeFast(body)
		if !ok {
			return
		}
		var p platform.Platform
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("%q: the fast path takes it; encoding/json says %v", body, err)
		}
		if c.Digest() != p.Digest() {
			t.Fatalf("%q: the fast path reads %+v, encoding/json %+v", body, c.Platform(), p)
		}
	})
}
