package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"adept/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/http_golden.json from the current server output")

// goldenExchange is one request of the scripted session as the golden file
// records it: status, the headers clients act on, and the body with every
// wall-clock-dependent field masked.
type goldenExchange struct {
	Step    string            `json:"step"`
	Status  int               `json:"status"`
	Headers map[string]string `json:"headers"`
	Body    any               `json:"body"`
}

const masked = "<masked>"

// maskedKeys are the JSON fields whose value depends on the wall clock, the
// toolchain or a random ID. Their presence is still pinned; their value is
// not.
var maskedKeys = map[string]bool{
	"elapsed_ms":     true,
	"duration_ms":    true,
	"uptime_seconds": true,
	"p50_ms":         true,
	"p99_ms":         true,
	"request_id":     true,
	"build":          true,
}

func maskJSON(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if maskedKeys[k] {
				x[k] = masked
			} else {
				x[k] = maskJSON(e)
			}
		}
	case []any:
		for i := range x {
			x[i] = maskJSON(x[i])
		}
	}
	return v
}

// TestHTTPGolden pins the daemon's wire behaviour absolutely: one scripted
// session over every response shape a client parses, compared byte for
// byte against testdata/http_golden.json. The handler tests assert
// properties; only a recorded transcript catches a field that silently
// changed name, moved, or disappeared in a refactor of the serving layer.
// Regenerate with:
//
//	go test ./internal/service -run TestHTTPGolden -update
func TestHTTPGolden(t *testing.T) {
	srv, err := New(Config{CacheSize: 16, Workers: 4, QueueDepth: 16, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	var got []goldenExchange
	// do issues one request and records the exchange. A non-nil body is
	// sent as JSON; extra is alternating header name/value pairs.
	do := func(base, step, method, path string, body any, extra ...string) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(extra); i += 2 {
			req.Header.Set(extra[i], extra[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		ex := goldenExchange{Step: step, Status: resp.StatusCode, Headers: map[string]string{}}
		for _, h := range []string{"Content-Type", "ETag", "Retry-After"} {
			if v := resp.Header.Get(h); v != "" {
				ex.Headers[h] = v
			}
		}
		if resp.Header.Get("X-Request-ID") != "" {
			ex.Headers["X-Request-ID"] = masked
		}
		if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.UseNumber() // keep every number's wire spelling
			var v any
			if err := dec.Decode(&v); err != nil {
				t.Fatalf("%s: body is not JSON: %v\n%s", step, err, raw)
			}
			ex.Body = maskJSON(v)
		} else {
			// The Prometheus exposition: values move with the clock and the
			// runtime, the set of families and their types must not.
			var types []string
			for _, line := range strings.Split(string(raw), "\n") {
				if strings.HasPrefix(line, "# TYPE ") {
					types = append(types, line)
				}
			}
			sort.Strings(types)
			ex.Body = types
		}
		got = append(got, ex)
	}

	plat := testPlatform(30)
	inline := PlanRequest{Platform: plat, DgemmN: 310}
	noCache, withPortfolio, traced := inline, inline, inline
	noCache.NoCache = true
	withPortfolio.Portfolio = true
	traced.Wapp, traced.Trace = 50, true

	do(ts.URL, "plan miss", "POST", "/v1/plan", inline)
	do(ts.URL, "plan hit", "POST", "/v1/plan", inline)
	do(ts.URL, "plan no_cache", "POST", "/v1/plan", noCache)
	do(ts.URL, "plan portfolio", "POST", "/v1/plan", withPortfolio)
	do(ts.URL, "plan traced", "POST", "/v1/plan", traced)
	do(ts.URL, "batch with one bad item", "POST", "/v1/plan/batch", BatchRequest{Requests: []PlanRequest{
		inline,
		{Platform: testPlatform(12), DgemmN: 310},
		{Platform: plat, Planner: "simulated-annealing"},
	}})

	do(ts.URL, "platform put", "PUT", "/v1/platforms/lyon", plat)
	do(ts.URL, "platform get", "GET", "/v1/platforms/lyon", nil)
	do(ts.URL, "platform put if-match", "PUT", "/v1/platforms/lyon", testPlatform(12), "If-Match", `"1"`)
	do(ts.URL, "platform put stale if-match", "PUT", "/v1/platforms/lyon", plat, "If-Match", `"1"`)
	do(ts.URL, "plan by name", "POST", "/v1/plan", PlanRequest{PlatformName: "lyon", DgemmN: 310})
	do(ts.URL, "platform delete", "DELETE", "/v1/platforms/lyon", nil)
	do(ts.URL, "platform get deleted", "GET", "/v1/platforms/lyon", nil)
	do(ts.URL, "unknown planner", "POST", "/v1/plan", PlanRequest{Platform: plat, Planner: "simulated-annealing"})

	// Load shedding, from a one-worker daemon with no queue (Config floors
	// QueueDepth at its default, so the pool is swapped in directly).
	shed, err := New(Config{Workers: 1, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	shed.pool.Close()
	if shed.pool, err = NewPool(1, 0); err != nil {
		t.Fatal(err)
	}
	shedTS := httptest.NewServer(shed.Handler())
	defer func() {
		shedTS.Close()
		shed.Close()
	}()
	release := blockPoolWorker(t, shed.pool)
	do(shedTS.URL, "plan shed", "POST", "/v1/plan", inline)
	release()

	do(ts.URL, "readyz", "GET", "/readyz", nil)
	do(ts.URL, "metrics json", "GET", "/v1/metrics", nil)
	do(ts.URL, "metrics prometheus types", "GET", "/metrics", nil)

	// A scenario request, traced: the miss generates inside the flight (its
	// own phase), the hit is addressed by the spec and generates nothing.
	// Last in the session, so the counters above read as they always have.
	fleet := PlanRequest{Scenario: &scenario.Spec{Family: scenario.ClusterGrid, N: 48, Seed: 5, PowerLevels: 4}, DgemmN: 310, Trace: true}
	do(ts.URL, "scenario miss", "POST", "/v1/plan", fleet)
	do(ts.URL, "scenario hit", "POST", "/v1/plan", fleet)

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "http_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	var wantEx []goldenExchange
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.UseNumber()
	if err := dec.Decode(&wantEx); err != nil {
		t.Fatalf("golden file does not parse: %v", err)
	}
	if len(got) != len(wantEx) {
		t.Errorf("session made %d exchanges, golden file holds %d", len(got), len(wantEx))
	}
	for i := 0; i < len(got) && i < len(wantEx); i++ {
		g, _ := json.MarshalIndent(got[i], "", "  ")
		w, _ := json.MarshalIndent(wantEx[i], "", "  ")
		if !bytes.Equal(g, w) {
			t.Errorf("%q drifted from golden:\n got  %s\n want %s", got[i].Step, g, w)
		}
	}
	t.Error("wire transcript differs from testdata/http_golden.json (run with -update after reviewing)")
}
