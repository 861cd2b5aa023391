package platform_test

import (
	"encoding/json"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/service"
)

// oracleParse is what ParseJSON was before DecodeJSON: json.Unmarshal into
// a Platform, then its conversion into columns (Platform.Columns, its
// validation). decodeErr is Unmarshal's verdict alone.
func oracleParse(data []byte) (p *platform.Platform, decodeErr, validateErr error) {
	p = new(platform.Platform)
	if decodeErr = json.Unmarshal(data, p); decodeErr != nil {
		return nil, decodeErr, nil
	}
	_, validateErr = p.Columns()
	return p, nil, validateErr
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
	// Valid pools the fast path hands to encoding/json: a node named twice,
	// and a repeated list that renames what it reveals.
	`{"name":"r","bandwidth_mbps":1,"nodes":[{"name":"a","name":"bb","power":1},{"name":"c","power":2}]}`,
	`{"name":"r","bandwidth_mbps":1,"nodes":[{"name":"a","power":1},{"name":"b","power":2}],"nodes":[{"name":"cc"}],"nodes":[{},{}]}`,
	// A valid explicit -0 link, which the digest tells from no override.
	`{"name":"z","bandwidth_mbps":1,"nodes":[{"name":"a","power":1,"link_bandwidth_mbps":-0},{"name":"b","power":2}]}`,
	// A link column that appears late, on a reused element.
	`{"name":"l","bandwidth_mbps":1,"nodes":[{"name":"a","power":1},{"name":"b","power":2}],"nodes":[{"link_bandwidth_mbps":7}],"nodes":[null,null]}`,
	// Errors right after a key matched as a literal, and the same keys
	// spelled so they are not.
	`{"nodes":[{"power":x}]}`, `{"nodes":[{"name":1}]}`, `{"nodes":[{"power":1.}]}`,
	`{"nodes":[{"power":-}]}`, `{"nodes":[{"power":01}]}`, `{"nodes":[{"power":1e}]}`,
	`{"nodes":[{"name":null,"power":1}]}`, `{"nodes":[{"name" :"a","POWER":1,"link_bandwidth_mbp\u0073":5}]}`,
	// Which failure wins: a syntax error after an invalid node; a bandwidth
	// of 0 given after the nodes; a nameless node before one with a bad
	// power; a duplicate name revealed by a repeated node list.
	`{"bandwidth_mbps":1,"nodes":[{"name":"a","power":0}],"x":}`,
	`{"nodes":[{"name":"a","power":-1}],"bandwidth_mbps":0}`,
	`{"bandwidth_mbps":1,"nodes":[{"power":1},{"name":"b","power":-1}]}`,
	`{"bandwidth_mbps":1,"nodes":[{"name":"a","power":1},{"name":"b","power":2}],"nodes":[{"name":"b"}],"nodes":[{},{}]}`,
	// Numbers at the edges of the exact path: 2^53, 2^53+1, 17 digits, -0.
	`{"name":"e","bandwidth_mbps":9007199254740992,"nodes":[{"name":"a","power":9007199254740993},{"name":"b","power":0.12345678901234567,"link_bandwidth_mbps":-0.000}]}`,
}

// FuzzParseJSON is DecodeJSON's contract: on any input it accepts and
// rejects what json.Unmarshal into a Platform followed by Platform.Columns
// does, in the same words — a decode failure as "platform: decode: " and
// encoding/json's message, a validation failure as Platform.Columns words
// it — and, when both accept, holds the same platform: its Columns.Digest
// is the oracle's Platform.Digest and its Columns.Platform() is the
// oracle's platform, field for field. ParseJSON says what DecodeJSON says.
func FuzzParseJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantDecode, wantValidate := oracleParse(data)
		got, err := platform.DecodeJSON(data)
		parsed, perr := platform.ParseJSON(data)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("%q: DecodeJSON says %v, ParseJSON says %v", data, err, perr)
		}
		switch {
		case wantDecode != nil:
			if err == nil || err.Error() != "platform: decode: "+wantDecode.Error() {
				t.Fatalf("DecodeJSON(%q): %v; encoding/json: %v", data, err, wantDecode)
			}
		case wantValidate != nil:
			if err == nil || err.Error() != wantValidate.Error() {
				t.Fatalf("DecodeJSON(%q): %v; Platform.Columns says %v", data, err, wantValidate)
			}
		case err != nil:
			t.Fatalf("DecodeJSON(%q): %v; encoding/json and Platform.Columns accept it", data, err)
		default:
			if got.Digest() != want.Digest() {
				t.Fatalf("DecodeJSON(%q) digests to another platform than encoding/json decodes: %+v", data, want)
			}
			if !reflect.DeepEqual(got.Platform(), want) || !reflect.DeepEqual(parsed, want) {
				t.Fatalf("DecodeJSON(%q) expands to %+v, ParseJSON to %+v; encoding/json decodes %+v", data, got.Platform(), parsed, want)
			}
		}
	})
}

// TestDecodeJSONBehaviours pins the behaviours FuzzParseJSON's seeds name
// to their outcomes on both sides, so the oracle is checked too: a Go
// release that changed one of them fails here instead of silently
// redefining the contract. Each body is given a bandwidth first, so the
// outcome is the nodes decoded when they are valid and the validation
// message that names what was decoded when they are not.
func TestDecodeJSONBehaviours(t *testing.T) {
	cases := []struct {
		body string
		// outcome is the decoded nodes as "name/power ...", the validation
		// message, or "error" for a decode failure.
		outcome string
	}{
		{`{"nodes":[{"name":"a","power":1},{"name":"b","power":3}],"nodes":[{"power":2}]}`, "a/2"},
		{`{"nodes":[{"name":"a","power":1},{"name":"b","power":3}],"nodes":[{"power":2}],"nodes":[{},{}]}`, "a/2 b/3"},
		{`{"nodes":[{"name":"a","power":1},{"name":"b","power":3}],"nodes":[],"nodes":[{},{}]}`, `platform "": node 0 has empty name`},
		{`{"NODES":[{"NaMe":"a","POWER":1}]}`, "a/1"},
		{`{"nodes":[{"name":"a","power":1,"power":null},null]}`, `platform "": node 1 has empty name`},
		{`{"nodes":[{"name":"a","power":1,"power":null},null],"nodes":[{},{"name":"b"}]}`, `platform "": node "b" has non-positive power 0`},
		{`{"nodes":[{"name":"a","power":1}],"nodes":null}`, `platform "": no nodes`},
		{`{"nodes":[{"name":"a","power":"1"}]}`, "error"},
		{`{"nodes":[{"name":"a","power":1e400}]}`, "error"},
		{`{"nodes":[{"name":"\ud800","power":1}]}`, "\uFFFD/1"},
		{`{"nodes":[{"name":"a","power":1},{"name":"b","power":2}],"nodes":[{"name":"b"}],"nodes":[null,null]}`, `platform "": duplicate node name "b"`},
		{`{"nodes":[{"name":"a","power":1},{"name":"b","power":2}],"nodes":[{"name":"c"}],"nodes":[null,null]}`, "c/1 b/2"},
		{nested(9999), "a/1"},
		{nested(10001), "error"},
		{`{"nodes":[{"name":"a","power":812.5000    }]}`, "a/812.5"},
		// Validate's order, whatever order the document gives things in.
		{`{"nodes":[{"name":"a","power":0}],"x":}`, "error"},
		{`{"nodes":[{"name":"a","power":-1}],"bandwidth_mbps":0}`, `platform "": bandwidth must be positive, got 0`},
		{`{"nodes":[{"power":1},{"name":"b","power":-1}]}`, `platform "": node 0 has empty name`},
		{`{"nodes":[{"name":"a","power":1},{"name":"b","power":2}],"nodes":[{"name":"b"}],"nodes":[{},{}]}`, `platform "": duplicate node name "b"`},
	}
	show := func(p *platform.Platform, err error) string {
		switch {
		case err != nil && strings.HasPrefix(err.Error(), "platform: decode: "):
			return "error"
		case err != nil:
			return err.Error()
		}
		var parts []string
		for _, n := range p.Nodes {
			parts = append(parts, n.Name+"/"+strconv.FormatFloat(n.Power, 'g', -1, 64))
		}
		return strings.Join(parts, " ")
	}
	oracle := func(body []byte) string {
		var p platform.Platform
		if err := json.Unmarshal(body, &p); err != nil {
			return "error"
		}
		_, err := p.Columns()
		return show(&p, err)
	}
	decoded := func(body []byte) string {
		c, err := platform.DecodeJSON(body)
		if err != nil {
			return show(nil, err)
		}
		return show(c.Platform(), nil)
	}
	for _, tc := range cases {
		body := []byte(`{"bandwidth_mbps":1,` + tc.body[1:])
		if s := oracle(body); s != tc.outcome {
			t.Errorf("encoding/json(%.60q) = %q, want %q", tc.body, s, tc.outcome)
		}
		if s := decoded(body); s != tc.outcome {
			t.Errorf("DecodeJSON(%.60q) = %q, want %q", tc.body, s, tc.outcome)
		}
	}
	for key, want := range map[string]float64{
		"link_bandwidth_mbps":           5,
		"LINK_BANDWIDTH_MBPS":           5,
		"lin\u212A_bandwidth_mbps":      5, // the Kelvin sign, escaped
		"lin\u212A_bandwidth_mbp\u017f": 5, // and the long s
		"l\u0130nk_bandwidth_mbps":      0, // a dotted capital I folds onto nothing
	} {
		body := `{"bandwidth_mbps":1,"nodes":[{"name":"a","power":1,"` + key + `":5}]}`
		c, err := platform.DecodeJSON([]byte(body))
		if err != nil {
			t.Errorf("key %s: %v", key, err)
		} else if _, link := c.Spec(0); link != want {
			t.Errorf("key %s: link %g, want %g", key, link, want)
		}
	}
}

// TestDecodeJSONDigestAcrossFamilies: for every scenario family, with its
// own links, with none, and with an explicit override on every node, the
// columns DecodeJSON builds from the platform's JSON — and those
// Platform.Columns builds from the platform, and those the generator
// draws — digest to Platform.Digest and expand into the platform itself.
func TestDecodeJSONDigestAcrossFamilies(t *testing.T) {
	for _, fam := range scenario.Families() {
		for _, n := range []int{2, 25, 400} {
			spec := scenario.Spec{Family: fam, N: n, Seed: 3}
			generated, err := spec.Columns(t.Context(), nil)
			if err != nil {
				t.Fatal(err)
			}
			p := generated.Platform()
			bare := p.Clone()
			explicit := p.Clone()
			for i := range bare.Nodes {
				bare.Nodes[i].LinkBandwidth = 0
				explicit.Nodes[i].LinkBandwidth = explicit.Nodes[i].Link(p.Bandwidth) * float64(1+i%3)
			}
			for variant, q := range map[string]*platform.Platform{"own links": p, "no links": bare, "every link": explicit} {
				data, err := json.Marshal(q)
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := platform.DecodeJSON(data)
				if err != nil {
					t.Fatalf("%s n=%d %s: %v", fam, n, variant, err)
				}
				converted, err := q.Columns()
				if err != nil {
					t.Fatalf("%s n=%d %s: %v", fam, n, variant, err)
				}
				want := q.Digest()
				for form, c := range map[string]*platform.Columns{"decoded": decoded, "converted": converted} {
					if c.Digest() != want {
						t.Errorf("%s n=%d %s: %s columns digest to another platform", fam, n, variant, form)
					}
					if !reflect.DeepEqual(c.Platform(), q) {
						t.Errorf("%s n=%d %s: %s columns expand into another platform", fam, n, variant, form)
					}
				}
			}
			if generated.Digest() != p.Digest() {
				t.Errorf("%s n=%d: generated columns digest to another platform than their expansion", fam, n)
			}
		}
	}
}

// TestDecodeJSONGrowthIsBoundedByInput: a node list whose first nodes have
// very long names and whose tail is many small nodes grows the columns by
// the density of the nodes read so far, and the name arena by no more than
// the input has left — not by the long names' average times the count.
func TestDecodeJSONGrowthIsBoundedByInput(t *testing.T) {
	long := strings.Repeat("a", 1<<20)
	body := `{"bandwidth_mbps":1,"nodes":[{"name":"` + long + `x","power":1},{"name":"` + long + `y","power":1},` +
		strings.Repeat(`{"power":1},`, 60_000) + `{"power":1}]}`
	if _, ok := platform.DecodeFast([]byte(body)); !ok {
		t.Fatal("the fast path refuses the body, so this measures encoding/json")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := platform.DecodeJSON([]byte(body))
	runtime.ReadMemStats(&after)
	if want := `platform "": node 2 has empty name`; err == nil || err.Error() != want {
		t.Fatalf("DecodeJSON: %v, want %q", err, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(body)) {
		t.Errorf("decoding %d bytes allocated %d", len(body), alloc)
	}
}

// churnBody renders p as BENCHMARK.json's replan_churn workload PUTs it
// (bench/stream.go's putTemplate): every power in a fixed 12-byte field,
// padded with spaces.
func churnBody(p *platform.Platform) []byte {
	b := []byte(`{"name":` + strconv.Quote(p.Name) + `,"bandwidth_mbps":` + strconv.FormatFloat(p.Bandwidth, 'g', -1, 64) + `,"nodes":[`)
	for i, n := range p.Nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`+strconv.Quote(n.Name)+`,"power":`...)
		power := strconv.FormatFloat(n.Power, 'f', 4, 64)
		b = append(b, power+strings.Repeat(" ", max(0, 12-len(power)))...)
		if n.LinkBandwidth > 0 {
			b = append(b, `,"link_bandwidth_mbps":`+strconv.FormatFloat(n.LinkBandwidth, 'g', -1, 64)...)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// churnPlatform is a replan_churn pool of n nodes (the workload registers
// 4 000): clustered, as its first name is, with no link overrides.
func churnPlatform(tb testing.TB, n int) *platform.Platform {
	p, err := (scenario.Spec{Family: scenario.Clustered, Name: "churn-0", N: n, Seed: 7}).Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestPoolFormsTakeTheFastPath: the forms pools are written in are read
// by DecodeJSON's fast path, never handed to encoding/json — json.Marshal's
// and MarshalIndent's (SaveJSON's, the journal's) forms and replan_churn's
// PUT body for every family, with its own links and with none, at n = 25
// and 400 — and so is the platform of a json.Marshal'ed plan request by
// DecodeMember.
func TestPoolFormsTakeTheFastPath(t *testing.T) {
	for _, fam := range scenario.Families() {
		for _, n := range []int{25, 400} {
			p, err := (scenario.Spec{Family: fam, N: n, Seed: 3}).Generate()
			if err != nil {
				t.Fatal(err)
			}
			bare := p.Clone()
			for i := range bare.Nodes {
				bare.Nodes[i].LinkBandwidth = 0
			}
			for _, q := range []*platform.Platform{p, bare} {
				marshalled, err := json.Marshal(q)
				if err != nil {
					t.Fatal(err)
				}
				indented, err := q.MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				for form, body := range map[string][]byte{"json.Marshal": marshalled, "MarshalIndent": indented, "churn": churnBody(q)} {
					c, ok := platform.DecodeFast(body)
					if !ok {
						t.Fatalf("%s n=%d %s: the fast path refuses it", fam, n, form)
					}
					var want platform.Platform
					if err := json.Unmarshal(body, &want); err != nil {
						t.Fatal(err)
					}
					if c.Digest() != want.Digest() {
						t.Errorf("%s n=%d %s: the fast path reads another platform than encoding/json", fam, n, form)
					}
				}
				request, err := json.Marshal(service.PlanRequest{Platform: q, DgemmN: 310, Planner: "heuristic"})
				if err != nil {
					t.Fatal(err)
				}
				if c, _, _, err := platform.DecodeMember(request, "platform"); err != nil {
					t.Errorf("%s n=%d plan request: %v", fam, n, err)
				} else if c.Digest() != q.Digest() {
					t.Errorf("%s n=%d plan request: DecodeMember reads another platform", fam, n)
				}
			}
		}
	}
}

// TestDecodeJSONFastPathsAgree: a replan_churn body and a MarshalIndent
// journal (LoadDir's form) each decode to one platform and digest however
// their keys and numbers are spelled — upper case or escaped, which
// encoding/json decodes, with a blank before the colon, which misses the
// literal keys, and with exponents, which miss the exact number path.
func TestDecodeJSONFastPathsAgree(t *testing.T) {
	p := churnPlatform(t, 400)
	for i := range p.Nodes {
		if i%3 != 0 {
			p.Nodes[i].LinkBandwidth = float64(100*(1+i%5)) + 0.25
		}
	}
	journal, err := p.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{`"name":`, `"power":`, `"link_bandwidth_mbps":`, `"bandwidth_mbps":`, `"nodes":`}
	respell := func(spell func(key string) string) func(string) string {
		return func(body string) string {
			for _, k := range keys {
				body = strings.ReplaceAll(body, k, spell(k))
			}
			return body
		}
	}
	number := regexp.MustCompile(`(":\s*)(-?[0-9][0-9.]*)`)
	variants := map[string]func(string) string{
		"upper case": respell(strings.ToUpper),
		"escaped": respell(func(k string) string {
			return k[:2] + `\u00` + strconv.FormatInt(int64(k[2]), 16) + k[3:]
		}),
		"blank before colon": respell(func(k string) string { return strings.TrimSuffix(k, ":") + " :" }),
		"exponents": func(body string) string {
			return number.ReplaceAllStringFunc(body, func(m string) string {
				sub := number.FindStringSubmatch(m)
				v, err := strconv.ParseFloat(sub[2], 64)
				if err != nil {
					t.Fatal(err)
				}
				return sub[1] + strconv.FormatFloat(v, 'e', -1, 64)
			})
		},
	}
	for form, body := range map[string]string{"churn": string(churnBody(p)), "journal": string(journal)} {
		as, err := platform.DecodeJSON([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		want, plat := as.Digest(), as.Platform()
		for name, rewrite := range variants {
			variant := rewrite(body)
			if variant == body {
				t.Fatalf("%s %s: the rewrite changed nothing", form, name)
			}
			c, err := platform.DecodeJSON([]byte(variant))
			if err != nil {
				t.Fatalf("%s %s: %v", form, name, err)
			}
			if c.Digest() != want {
				t.Errorf("%s %s: digests to another platform", form, name)
			}
			if !reflect.DeepEqual(c.Platform(), plat) {
				t.Errorf("%s %s: expands into another platform", form, name)
			}
		}
	}
}

// TestDecodeMember pins what DecodeMember takes — the member spelled
// exactly as asked, its value's span, other members skipped whatever they
// hold, nothing read past the object — and what it refuses, where
// encoding/json with DisallowUnknownFields might read the object another
// way: an unknown member of the platform or of a node, another spelling of
// the key, a second member, null, no member, and a syntax error anywhere.
func TestDecodeMember(t *testing.T) {
	const plat = `{"name":"x","bandwidth_mbps":100,"nodes":[{"name":"a","power":1,"link_bandwidth_mbps":10}]}`
	for _, body := range []string{
		`{"platform":` + plat + `}`,
		` { "a" : [1,{"platform":null}] , "platform" : ` + plat + ` , "z":"\u0070latform"} and then not JSON`,
	} {
		c, start, end, err := platform.DecodeMember([]byte(body), "platform")
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if body[start:end] != plat {
			t.Errorf("%s: the value spans %q", body, body[start:end])
		}
		if power, link := c.Spec(0); c.Len() != 1 || c.NodeName(0) != "a" || power != 1 || link != 10 || c.Name != "x" || c.Bandwidth != 100 {
			t.Errorf("%s: decoded %+v", body, c.Platform())
		}
	}
	for _, body := range []string{
		`{"platform":{"name":"x","colour":"red","bandwidth_mbps":100,"nodes":[{"name":"a","power":1}]}}`,
		`{"platform":{"name":"x","bandwidth_mbps":100,"nodes":[{"name":"a","power":1,"colour":"red"}]}}`,
		`{"Platform":` + plat + `}`,
		`{"pl\u0061tform":` + plat + `}`,
		`{"platform":` + plat + `,"platform":` + plat + `}`,
		`{"platform":` + plat + `,"PLATFORM":null}`,
		`{"platform":null}`,
		`{"platforms":` + plat + `}`,
		`[` + plat + `]`,
		`{"platform":` + plat + `,}`,
		`{"platform":` + plat,
		`{"platform":{"name":"x","bandwidth_mbps":"100"}}`,
	} {
		if _, _, _, err := platform.DecodeMember([]byte(body), "platform"); err == nil {
			t.Errorf("%s: taken", body)
		}
	}
}

// BenchmarkDecodeJSON4000 is the decoder alone on replan_churn's PUT body:
// bytes to validated columns.
func BenchmarkDecodeJSON4000(b *testing.B) {
	body := churnBody(churnPlatform(b, 4000))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := platform.DecodeJSON(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColumnsDigest4000 is the content address of what that PUT
// decodes to: the registry digests every write.
func BenchmarkColumnsDigest4000(b *testing.B) {
	c, err := platform.DecodeJSON(churnBody(churnPlatform(b, 4000)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		c.Digest()
	}
}
