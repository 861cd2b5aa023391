package platform_test

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"adept/internal/platform"
)

// oracleParse is what ParseJSON was before DecodeJSON: json.Unmarshal into
// a Platform, then Validate. decodeErr is Unmarshal's verdict alone.
func oracleParse(data []byte) (p *platform.Platform, decodeErr, validateErr error) {
	p = new(platform.Platform)
	if decodeErr = json.Unmarshal(data, p); decodeErr != nil {
		return nil, decodeErr, nil
	}
	return p, nil, p.Validate()
}

// nested returns an unknown member holding a value nested depth deep.
func nested(depth int) string {
	return `{"name":"deep","bandwidth_mbps":1,"nodes":[{"name":"a","power":1}],"x":` +
		strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
}

// decodeSeeds are FuzzParseJSON's seed corpus: every behaviour of
// json.Unmarshal on a Platform DecodeJSON has to reproduce.
var decodeSeeds = []string{
	// A repeated member decodes into what the last one left: one node, a/2.
	`{"nodes":[{"name":"a","power":1},{"name":"b","power":3}],"nodes":[{"power":2}]}`,
	// ...and a third reveals the backing array the second cut off: a/2, b/3.
	`{"nodes":[{"name":"a","power":1},{"name":"b","power":3}],"nodes":[{"power":2}],"nodes":[{},{}],"bandwidth_mbps":1}`,
	// An empty array is a fresh slice: nothing to reveal.
	`{"nodes":[{"name":"a","power":1},{"name":"b","power":3}],"nodes":[],"nodes":[{},{}],"bandwidth_mbps":1}`,
	// Keys match case-insensitively, the Kelvin sign and the long s included;
	// a dotted capital I folds onto nothing.
	`{"NODES":[{"NaMe":"a","POWER":1}],"Bandwidth_MBPS":100,"Name":"x"}`,
	`{"name":"k","bandwidth_mbps":100,"nodes":[{"name":"a","power":1,"lin` + "K" + `_bandwidth_mbps":5}]}`,
	`{"name":"k","bandwidth_mbps":100,"nodes":[{"name":"a","power":1,"linK_bandwidth_mbps":5}]}`,
	`{"name":"s","bandwidth_mbp` + "ſ" + `":100,"nodes":[{"name":"a","power":1}]}`,
	`{"name":"i","bandwidth_mbps":100,"nodes":[{"name":"a","power":1,"l` + "İ" + `nk_bandwidth_mbps":5}]}`,
	// null leaves a field as it was, and empties the node list.
	`{"name":"x","name":null,"bandwidth_mbps":10,"bandwidth_mbps":null,"nodes":[{"name":"a","power":1,"power":null},null]}`,
	`{"name":"x","bandwidth_mbps":10,"nodes":[{"name":"a","power":1}],"nodes":null}`,
	`null`,
	// Type mismatches and out-of-range numbers are errors.
	`{"name":"x","bandwidth_mbps":10,"nodes":[{"name":"a","power":"1"}]}`,
	`{"name":"x","bandwidth_mbps":1e400,"nodes":[{"name":"a","power":1}]}`,
	`{"name":"x","bandwidth_mbps":1e-400,"nodes":[{"name":"a","power":1,"link_bandwidth_mbps":-0}]}`,
	`{"name":1}`, `{"nodes":{}}`, `{"nodes":[1]}`, `{"nodes":[[]]}`, `[]`, `"x"`, `true`,
	// Strings: a lone surrogate and invalid UTF-8 become U+FFFD, a pair joins.
	`{"name":"\ud800","bandwidth_mbps":1,"nodes":[{"name":"\ud800x","power":1},{"name":"😀","power":1},{"name":"\udc00\ud800A","power":1}]}`,
	"{\"name\":\"\xff\xfe\",\"bandwidth_mbps\":1,\"nodes\":[{\"name\":\"a\\u00e9\\n\\\"\\\\\\/\\b\\f\\r\\t\xed\xa0\x80\",\"power\":1}]}",
	`{"name":"\x"}`, `{"name":"\u12"}`, "{\"name\":\"a\x01\"}",
	// Unknown members of any shape are skipped, to encoding/json's depth.
	`{"name":"u","bandwidth_mbps":1,"extra":{"a":[1,-2.5e+3,true,false,null,"s",{},[]],"b":{}},"nodes":[{"name":"a","power":1,"x":[{"y":null}]}]}`,
	nested(9999), nested(10000), nested(10001),
	`{"x":[}`, `{"x":{]}`, `{"x":{"a"}}`, `{"x":[1,]}`, `{"x":{"a":1,}}`,
	// Syntax: truncation, trailing bytes, numbers, literals, whitespace.
	``, ` `, `{`, `{"nodes":[{"name":"a","power":1`, `{}x`, `{} {}`, `{"name":"a"`,
	`{"bandwidth_mbps":01}`, `{"bandwidth_mbps":-}`, `{"bandwidth_mbps":1.}`, `{"bandwidth_mbps":1e}`,
	`{"bandwidth_mbps":.5}`, `{"bandwidth_mbps":+1}`, `{"x":nul}`, `{"x":tru}`, `nul`,
	" \t\r\n{ \"name\" : \"w\" , \"bandwidth_mbps\" : 1 , \"nodes\" : [ { \"name\" : \"a\" , \"power\" : 1 } ] } \n",
	// Validation after a clean decode: the messages must match.
	`{"name":"v","bandwidth_mbps":1,"nodes":[{"name":"a","power":1},{"name":"a","power":2}]}`,
	`{"name":"v","bandwidth_mbps":0,"nodes":[{"name":"a","power":1}]}`,
	`{"name":"v","bandwidth_mbps":1,"nodes":[]}`,
	`{"name":"v","bandwidth_mbps":1,"nodes":[{"power":1}]}`,
	// replan_churn's body: fixed-width powers padded with spaces.
	`{"name":"churn-0","bandwidth_mbps":1000,"nodes":[{"name":"churn-0-0000","power":812.5000    },{"name":"churn-0-0001","power":97.2500     ,"link_bandwidth_mbps":100}]}`,
}

// FuzzParseJSON is DecodeJSON's contract: on any input it accepts and
// rejects what json.Unmarshal into a Platform does and, when both accept,
// decodes the same platform; ParseJSON then validates it with Validate's
// own words.
func FuzzParseJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantDecode, wantValidate := oracleParse(data)
		got, err := platform.DecodeJSON(data)
		if (err == nil) != (wantDecode == nil) {
			t.Fatalf("DecodeJSON(%q): error %v; encoding/json: %v", data, err, wantDecode)
		}
		parsed, perr := platform.ParseJSON(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "platform: decode: ") || perr == nil || perr.Error() != err.Error() {
				t.Fatalf("%q: DecodeJSON says %v, ParseJSON says %v", data, err, perr)
			}
			return
		}
		if len(got.Nodes) != len(want.Nodes) || got.Digest() != want.Digest() {
			t.Fatalf("DecodeJSON(%q) = %+v; encoding/json decodes %+v", data, got, want)
		}
		if (perr == nil) != (wantValidate == nil) || perr != nil && perr.Error() != wantValidate.Error() {
			t.Fatalf("ParseJSON(%q): %v; Validate says %v", data, perr, wantValidate)
		}
		if perr == nil && parsed.Digest() != want.Digest() {
			t.Fatalf("ParseJSON(%q) decoded another platform than DecodeJSON", data)
		}
	})
}

// TestDecodeJSONBehaviours pins the behaviours FuzzParseJSON's seeds name
// to their outcomes on both sides, so the oracle is checked too: a Go
// release that changed one of them fails here instead of silently
// redefining the contract.
func TestDecodeJSONBehaviours(t *testing.T) {
	cases := []struct {
		body  string
		nodes string // the decoded nodes as "name/power ...", or "error"
	}{
		{`{"nodes":[{"name":"a","power":1},{"name":"b","power":3}],"nodes":[{"power":2}]}`, "a/2"},
		{`{"nodes":[{"name":"a","power":1},{"name":"b","power":3}],"nodes":[{"power":2}],"nodes":[{},{}]}`, "a/2 b/3"},
		{`{"nodes":[{"name":"a","power":1},{"name":"b","power":3}],"nodes":[],"nodes":[{},{}]}`, "/0 /0"},
		{`{"NODES":[{"NaMe":"a","POWER":1}]}`, "a/1"},
		{`{"nodes":[{"name":"a","power":1,"power":null},null]}`, "a/1 /0"},
		{`{"nodes":[{"name":"a","power":1}],"nodes":null}`, ""},
		{`{"nodes":[{"name":"a","power":"1"}]}`, "error"},
		{`{"nodes":[{"name":"a","power":1e400}]}`, "error"},
		{`{"nodes":[{"name":"\ud800","power":1}]}`, "\uFFFD/1"},
		{nested(9999), "a/1"},
		{nested(10001), "error"},
		{`{"nodes":[{"name":"a","power":812.5000    }]}`, "a/812.5"},
	}
	show := func(p *platform.Platform, err error) string {
		if err != nil {
			return "error"
		}
		var parts []string
		for _, n := range p.Nodes {
			parts = append(parts, n.Name+"/"+strconv.FormatFloat(n.Power, 'g', -1, 64))
		}
		return strings.Join(parts, " ")
	}
	for _, tc := range cases {
		var want platform.Platform
		werr := json.Unmarshal([]byte(tc.body), &want)
		got, err := platform.DecodeJSON([]byte(tc.body))
		if s := show(&want, werr); s != tc.nodes {
			t.Errorf("encoding/json(%.60q) nodes = %q, want %q", tc.body, s, tc.nodes)
		}
		if s := show(got, err); s != tc.nodes {
			t.Errorf("DecodeJSON(%.60q) nodes = %q, want %q", tc.body, s, tc.nodes)
		}
	}
	for key, want := range map[string]float64{
		"link_bandwidth_mbps":           5,
		"LINK_BANDWIDTH_MBPS":           5,
		"lin\u212a_bandwidth_mbps":      5, // the Kelvin sign, escaped
		"lin\u212A_bandwidth_mbp\u017f": 5, // and the long s
		"l\u0130nk_bandwidth_mbps":      0, // a dotted capital I folds onto nothing
	} {
		body := `{"nodes":[{"name":"a","power":1,"` + key + `":5}]}`
		p, err := platform.DecodeJSON([]byte(body))
		if err != nil || p.Nodes[0].LinkBandwidth != want {
			t.Errorf("key %s: %+v, %v; want link %g", key, p, err, want)
		}
	}
}
