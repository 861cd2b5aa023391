package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"adept/internal/platform"
	"adept/internal/scenario"
)

// edgePlatform is a valid two-node platform for the edge bodies.
const edgePlatform = `{"name":"x","bandwidth_mbps":100,"nodes":[{"name":"a","power":100},{"name":"b","power":200}]}`

// edgeKey is the content address of a heuristic plan of edgePlatform at the
// default DGEMM 310.
const edgeKey = "965d3ee6068d9b06761d103e170b0d6e678dac8a68dddd00196a7bbb123b8d51"

// planEdges are /v1/plan bodies at the edges of what decodePlanRequest's
// columns path takes, each with what the daemon answered it before that
// path existed: the status, and the error message or, on a 200, the key.
// The answers were recorded from the encoding/json decoder alone.
var planEdges = []struct {
	name, body string
	status     int
	answer     string
}{
	{"valid", `{"platform":` + edgePlatform + `}`, 200, edgeKey},
	{"unknown platform member", `{"platform":{"name":"x","colour":"red","bandwidth_mbps":100,"nodes":[{"name":"a","power":100},{"name":"b","power":200}]}}`,
		400, `decode request: json: unknown field "colour"`},
	{"unknown node member", `{"platform":{"name":"x","bandwidth_mbps":100,"nodes":[{"name":"a","power":100,"colour":"red"},{"name":"b","power":200}]}}`,
		400, `decode request: json: unknown field "colour"`},
	{"unknown top-level member", `{"platform":` + edgePlatform + `,"colour":"red"}`, 400, `decode request: json: unknown field "colour"`},
	{"key Platform", `{"Platform":` + edgePlatform + `}`, 200, edgeKey},
	{"key PLATFORM", `{"PLATFORM":` + edgePlatform + `}`, 200, edgeKey},
	{"escaped key", `{"pl\u0061tform":` + edgePlatform + `}`, 200, edgeKey},
	// encoding/json decodes a repeated member into what the first left.
	{"two platform members", `{"platform":{"name":"y","bandwidth_mbps":50},"platform":` + edgePlatform + `}`, 200, edgeKey},
	{"platform and Platform", `{"platform":` + edgePlatform + `,"Platform":{"name":"y"}}`,
		200, "8d63787c1ff86398af49f6106e274473a6c18491e051c038a762d99f5c24fd1f"},
	{"platform null", `{"platform":null}`, 400, "missing platform, platform_name or scenario"},
	{"platform null and a name", `{"platform":null,"platform_name":"nope"}`, 400, `platform "nope" not registered`},
	{"platform not an object", `{"platform":[]}`,
		400, "decode request: json: cannot unmarshal array into Go struct field PlanRequest.platform of type platform.Platform"},
	{"type error in the platform", `{"platform":{"name":"x","bandwidth_mbps":"fast","nodes":[{"name":"a","power":100}]}}`,
		400, "decode request: json: cannot unmarshal string into Go struct field Platform.platform.bandwidth_mbps of type float64"},
	{"type error outside", `{"dgemm_n":"big","platform":` + edgePlatform + `}`,
		400, "decode request: json: cannot unmarshal string into Go struct field PlanRequest.dgemm_n of type int"},
	{"type error in the platform, then outside", `{"platform":{"name":"x","bandwidth_mbps":"fast","nodes":[{"name":"a","power":100}]},"dgemm_n":"big"}`,
		400, "decode request: json: cannot unmarshal string into Go struct field Platform.platform.bandwidth_mbps of type float64"},
	{"type error outside, then in the platform", `{"dgemm_n":"big","platform":{"name":"x","bandwidth_mbps":"fast","nodes":[{"name":"a","power":100}]}}`,
		400, "decode request: json: cannot unmarshal string into Go struct field PlanRequest.dgemm_n of type int"},
	{"syntax error in the platform", `{"platform":{"name":"x",}}`,
		400, "decode request: invalid character '}' looking for beginning of object key string"},
	{"syntax error after the platform", `{"platform":` + edgePlatform + `,}`,
		400, "decode request: invalid character '}' looking for beginning of object key string"},
	{"bytes after the closing brace", `{"platform":` + edgePlatform + `} and then {"this": is not JSON`, 200, edgeKey},
	// Found on the miss, by the one validation an inline platform gets.
	{"duplicate node names", `{"platform":{"name":"x","bandwidth_mbps":100,"nodes":[{"name":"a","power":100},{"name":"a","power":200}]}}`,
		400, `platform "x": duplicate node name "a"`},
	{"platform and a scenario", `{"platform":` + edgePlatform + `,"scenario":{"family":"star","n":4}}`,
		400, "set exactly one of platform, platform_name or scenario"},
	{"not an object", `[1,2]`, 400, "decode request: json: cannot unmarshal array into Go value of type service.PlanRequest"},
	{"empty body", ``, 400, "decode request: EOF"},
	{"one byte over 16 MiB", overLimitBody(), 413, "decode request: http: request body too large"},
}

// overLimitBody is a body one byte longer than maxRequestBody that is
// valid JSON as far as it goes.
func overLimitBody() string {
	const head = `{"platform_name":"`
	return head + strings.Repeat("a", maxRequestBody+1-len(head))
}

// TestPlatformUnknownMembers pins the asymmetry the README documents — a
// PUT skips a platform member it does not know, an inline platform in a plan
// request is refused for it — and, over the edge bodies of /v1/plan's
// columns path, that every one answers through the real handler what it
// answered before that path: the status and the error or the key.
func TestPlatformUnknownMembers(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"name":"x","colour":"red","bandwidth_mbps":100,"nodes":[{"name":"a","power":100},{"name":"b","power":200}]}`
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/platforms/x", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("PUT with an unknown member: status %d, want 200", resp.StatusCode)
	}
	for _, tc := range planEdges {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Error string `json:"error"`
			Key   string `json:"key"`
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, raw)
		}
		answer := got.Error
		if resp.StatusCode == http.StatusOK {
			answer = got.Key
		}
		if resp.StatusCode != tc.status || answer != tc.answer {
			t.Errorf("%s: %d %q, want %d %q", tc.name, resp.StatusCode, answer, tc.status, tc.answer)
		}
	}
}

// discard is a ResponseWriter that keeps nothing, so that what a request
// allocates is the handler's alone.
type discard struct{ h http.Header }

func (d discard) Header() http.Header       { return d.h }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)             {}

// TestInlinePlanHitAllocatesLessThanItsBody holds a cache hit on an inline
// 400-node platform, mix_small's largest, to allocating less than its body,
// once the kept body buffer has grown: the body is read into that buffer
// and decoded straight into columns. A decode into nodes by encoding/json
// allocates the body over again in the decoder's buffer, and the nodes
// beside it, and fails here.
func TestInlinePlanHitAllocatesLessThanItsBody(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's runtime allocates on the program's account")
	}
	srv, err := New(Config{SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	plat, err := (scenario.Spec{Family: scenario.ClusterGrid, N: 400, Seed: 7}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(PlanRequest{Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := discard{h: http.Header{}}
	// The miss, then a hit, which grows the buffers a hit is read and
	// answered in.
	for _, cached := range []string{`"cached": false`, `"cached": true`} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), cached) {
			t.Fatalf("want %s, got %d: %.200s", cached, rec.Code, rec.Body.String())
		}
	}
	// The least of a few rounds: a collection between two hits may empty
	// the kept buffers, and the next hit grows them again.
	const hits = 10
	perHit := uint64(math.MaxUint64)
	for range 5 {
		reqs := make([]*http.Request, hits)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, req := range reqs {
			h.ServeHTTP(w, req)
		}
		runtime.ReadMemStats(&after)
		perHit = min(perHit, (after.TotalAlloc-before.TotalAlloc)/hits)
	}
	t.Logf("a hit allocates %d B; its body is %d B", perHit, len(body))
	if perHit >= uint64(len(body)) {
		t.Errorf("a hit on an inline 400-node platform allocates %d B, its body is %d B", perHit, len(body))
	}
}

// planDecodeSeeds are FuzzPlanRequestDecode's seed bodies: every request of
// TestHTTPGolden's session, every edge body, and a few more of their kind.
func planDecodeSeeds(tb testing.TB) [][]byte {
	plat := testPlatform(30)
	inline := PlanRequest{Platform: plat, DgemmN: 310}
	noCache, withPortfolio, traced := inline, inline, inline
	noCache.NoCache = true
	withPortfolio.Portfolio = true
	traced.Wapp, traced.Trace = 50, true
	var seeds [][]byte
	for _, v := range []any{
		inline, noCache, withPortfolio, traced,
		BatchRequest{Requests: []PlanRequest{inline, {Platform: testPlatform(12), DgemmN: 310}, {Platform: plat, Planner: "simulated-annealing"}}},
		plat, testPlatform(12),
		PlanRequest{PlatformName: "lyon", DgemmN: 310},
		PlanRequest{Platform: plat, Planner: "simulated-annealing"},
		PlanRequest{Scenario: &scenario.Spec{Family: scenario.ClusterGrid, N: 48, Seed: 5, PowerLevels: 4}, DgemmN: 310, Trace: true},
	} {
		data, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, tc := range planEdges {
		seeds = append(seeds, []byte(tc.body))
	}
	for _, s := range []string{
		`{"platform":{"name":"x","bandwidth_mbps":100,"nodes":[{"name":"a","power":100,"link_bandwidth_mbps":10,"NAME":"b"}]},"costs":{"agent_wreq":1}}`,
		` {"platform" : ` + edgePlatform + ` , "demand" : 3 }`,
		`{"platform":` + edgePlatform + `,"platoorm":null}`,
		`{"platform":` + edgePlatform + `}{"platform":null}`,
		`{"platform":{"nodes":[{"name":"a","power":1}],"nodes":null}}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzPlanRequestDecode holds /v1/plan's decode (decodePlanRequest) to the
// decoder it stands in for, decodeBody's json.Decoder with
// DisallowUnknownFields: for any body, the same status, the same error body
// and, on success, the same request — its platform compared by digest and
// by the nodes it describes, in whichever form it was decoded.
//
// The body over the limit is checked when the seeds are replayed (go
// test), and no body over 1 MiB while fuzzing: the mutants of that 16 MiB
// seed cost two 16 MiB decodes each, and minimising one would spend the
// fuzzing budget on it.
func FuzzPlanRequestDecode(f *testing.F) {
	for _, s := range planDecodeSeeds(f) {
		f.Add(s)
	}
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	f.Fuzz(func(t *testing.T, body []byte) {
		if fuzzing && len(body) > 1<<20 {
			t.Skip("over 1 MiB: checked by the seed replay")
		}
		var got, want PlanRequest
		gotRec, wantRec := httptest.NewRecorder(), httptest.NewRecorder()
		gotOK := decodePlanRequest(gotRec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)), &got)
		wantOK := decodeBody(wantRec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)), &want)
		if gotOK != wantOK || gotRec.Code != wantRec.Code || !bytes.Equal(gotRec.Body.Bytes(), wantRec.Body.Bytes()) {
			t.Fatalf("%.300q: answered %d %s, encoding/json %d %s", body, gotRec.Code, gotRec.Body, wantRec.Code, wantRec.Body)
		}
		if !gotOK {
			return
		}
		if got.columns != nil {
			if got.Platform != nil || want.Platform == nil {
				t.Fatalf("%.300q: decoded columns and %v; encoding/json decoded %v", body, got.Platform, want.Platform)
			}
			if got.columns.Digest() != want.Platform.Digest() {
				t.Fatalf("%.300q: the columns digest to another platform than encoding/json decodes: %+v", body, want.Platform)
			}
			if p := got.columns.Platform(); !samePlatform(p, want.Platform) {
				t.Fatalf("%.300q: the columns describe %+v; encoding/json decodes %+v", body, p, want.Platform)
			}
			got.columns, got.Platform = nil, want.Platform
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%.300q: decoded %+v; encoding/json decodes %+v", body, got, want)
		}
	})
}

// samePlatform reports whether a and b are field for field the same
// platform, an empty node list and none being the same.
func samePlatform(a, b *platform.Platform) bool {
	if a.Name != b.Name || a.Bandwidth != b.Bandwidth || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}
