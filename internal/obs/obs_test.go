package obs

import (
	"bufio"
	"fmt"
	"log/slog"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %g, want -1", got)
	}
}

// A Timer is a value: starting and reading one allocates nothing.
func TestTimerAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = StartTimer().Elapsed() }); n != 0 {
		t.Fatalf("StartTimer + Elapsed: %v allocations, want 0", n)
	}
}

func TestExpBucketsGolden(t *testing.T) {
	got := ExpBuckets(100e-6, 2, 5)
	want := []float64{100e-6, 200e-6, 400e-6, 800e-6, 1600e-6}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	lb := LatencyBuckets()
	if len(lb) != 20 {
		t.Fatalf("LatencyBuckets len = %d, want 20", len(lb))
	}
	if lb[0] != 100e-6 {
		t.Fatalf("first latency bucket = %g, want 1e-4", lb[0])
	}
	// Doubling 19 times from 100µs ends at ~52.4s.
	if top := lb[19]; math.Abs(top-100e-6*math.Pow(2, 19)) > 1e-9 {
		t.Fatalf("last latency bucket = %g", top)
	}
}

// TestHistogramBucketBoundaries is the golden boundary test: Prometheus
// le semantics are inclusive, so an observation exactly on a bound
// lands in that bound's bucket, and one epsilon above falls through to
// the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(1)        // exactly on first bound -> bucket 0
	h.Observe(1.000001) // just above -> bucket 1
	h.Observe(2)        // exactly on second bound -> bucket 1
	h.Observe(4)        // exactly on last bound -> bucket 2
	h.Observe(4.5)      // above all bounds -> +Inf bucket
	h.Observe(0)        // below everything -> bucket 0
	want := []uint64{2, 2, 1, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-12.500001) > 1e-9 {
		t.Fatalf("sum = %g, want 12.500001", sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 40})
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	for i := 0; i < 100; i++ {
		h.Observe(5) // all in first bucket
	}
	// Median of a bucket spanning (0,10] interpolates to 5.
	if q := h.Quantile(0.5); math.Abs(q-5) > 1e-9 {
		t.Fatalf("q50 = %g, want 5", q)
	}
	h2 := newHistogram([]float64{10, 20, 40})
	h2.Observe(100) // overflow bucket only
	if q := h2.Quantile(0.5); q != 40 {
		t.Fatalf("overflow quantile = %g, want 40 (largest finite bound)", q)
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines while a
// reader snapshots — run under -race in CI, and asserts no observation
// is lost.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 10))
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.BucketCounts()
				_ = h.Quantile(0.99)
				_ = h.Sum()
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(seed int) {
			defer ww.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64((seed*perWorker+i)%1000) / 3)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	var sum uint64
	for _, c := range h.BucketCounts() {
		sum += c
	}
	if sum != workers*perWorker {
		t.Fatalf("bucket sum = %d, want %d", sum, workers*perWorker)
	}
}

func TestVecChildrenAndPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_requests_total", "requests", "endpoint")
	cv.With("plan").Add(3)
	cv.With("metrics").Inc()
	cv.With("plan").Inc()
	if got := cv.With("plan").Value(); got != 4 {
		t.Fatalf("plan counter = %d, want 4", got)
	}
	var visited []string
	cv.Do(func(values []string, c *Counter) {
		visited = append(visited, values[0]+"="+strconv.FormatUint(c.Value(), 10))
	})
	if strings.Join(visited, ",") != "metrics=1,plan=4" {
		t.Fatalf("Do order = %v, want sorted [metrics=1 plan=4]", visited)
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("dup", func() { r.Counter("test_requests_total", "dup") })
	mustPanic("bad name", func() { r.Counter("bad-name", "x") })
	mustPanic("bad label", func() { r.CounterVec("test_ok_total", "x", "bad-label") })
	mustPanic("label arity", func() { cv.With("a", "b") })
	mustPanic("bad buckets", func() { r.Histogram("test_h", "x", []float64{2, 1}) })
}

// parseExposition is a strict line-level parser of the Prometheus text
// format used by the handler test: it checks HELP/TYPE pairs precede
// their series, every series line matches the sample grammar, histogram
// buckets are cumulative-monotone, and _count equals the +Inf bucket.
func parseExposition(t *testing.T, body string) map[string]string {
	t.Helper()
	types := map[string]string{}
	var curFamily string
	helpSeen := map[string]bool{}
	seriesSeen := map[string]bool{}
	var lastBucket struct {
		series string
		le     float64
		cum    uint64
	}
	infCount := map[string]uint64{}
	countVal := map[string]uint64{}

	sc := bufio.NewScanner(strings.NewReader(body))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[0] == "" {
				t.Fatalf("line %d: malformed HELP: %q", lineNo, line)
			}
			helpSeen[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := parts[0], parts[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", lineNo, typ)
			}
			if !helpSeen[name] {
				t.Fatalf("line %d: TYPE %s before HELP", lineNo, name)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			types[name] = typ
			curFamily = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", lineNo, line)
		}
		// Sample line: name or name{labels} then space then value.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("line %d: no value separator: %q", lineNo, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", lineNo, valStr, err)
		}
		name := series
		labels := ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels: %q", lineNo, line)
			}
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if curFamily == "" || (name != curFamily && base != curFamily && !strings.HasPrefix(name, curFamily)) {
			// Allow the runtime collector's multiple families under one
			// registry entry: each still emits its own HELP/TYPE first.
			if !helpSeen[name] && !helpSeen[base] {
				t.Fatalf("line %d: series %q before its HELP/TYPE", lineNo, name)
			}
		}
		if seriesSeen[series] {
			t.Fatalf("line %d: duplicate series %q", lineNo, series)
		}
		seriesSeen[series] = true

		if strings.HasSuffix(name, "_bucket") {
			leStr := ""
			var otherLabels []string
			for _, kv := range strings.Split(labels, ",") {
				if strings.HasPrefix(kv, `le="`) {
					leStr = strings.TrimSuffix(strings.TrimPrefix(kv, `le="`), `"`)
				} else {
					otherLabels = append(otherLabels, kv)
				}
			}
			if leStr == "" {
				t.Fatalf("line %d: bucket without le: %q", lineNo, line)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				le, err = strconv.ParseFloat(leStr, 64)
				if err != nil {
					t.Fatalf("line %d: bad le %q", lineNo, leStr)
				}
			}
			// Identify the bucket series by name plus its non-le labels,
			// so two label sets under one family don't cross-check.
			baseSeries := strings.TrimSuffix(name, "_bucket") + "{" + strings.Join(otherLabels, ",") + "}"
			if lastBucket.series == baseSeries {
				if le <= lastBucket.le {
					t.Fatalf("line %d: le not increasing (%g after %g)", lineNo, le, lastBucket.le)
				}
				if uint64(val) < lastBucket.cum {
					t.Fatalf("line %d: bucket counts not cumulative (%v < %d)", lineNo, val, lastBucket.cum)
				}
			}
			lastBucket.series, lastBucket.le, lastBucket.cum = baseSeries, le, uint64(val)
			if math.IsInf(le, 1) {
				infCount[baseSeries] = uint64(val)
			}
		}
		if strings.HasSuffix(name, "_count") {
			countVal[strings.TrimSuffix(name, "_count")+"{"+labels+"}"] = uint64(val)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	for series, inf := range infCount {
		if c, ok := countVal[series]; ok && c != inf {
			t.Fatalf("%s: _count %d != +Inf bucket %d", series, c, inf)
		}
	}
	return types
}

func TestHandlerExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("adeptd_test_requests_total", "Total requests.")
	reqs.Add(7)
	r.GaugeFunc("adeptd_test_queue_depth", "Queue depth.", func() float64 { return 3 })
	hv := r.HistogramVec("adeptd_test_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1}, "endpoint")
	hv.With("plan").Observe(0.0005)
	hv.With("plan").Observe(0.05)
	hv.With("plan").Observe(5)
	hv.With(`we"ird`).Observe(0.002) // label escaping survives round trip
	gv := r.GaugeVec("adeptd_test_shard_entries", "Shard sizes.", "shard")
	gv.With("0").Set(2)
	gv.With("1").Set(5)
	r.RegisterRuntime()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != expositionContentType {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	types := parseExposition(t, body)
	if types["adeptd_test_requests_total"] != "counter" {
		t.Fatalf("requests_total type = %q", types["adeptd_test_requests_total"])
	}
	if types["adeptd_test_latency_seconds"] != "histogram" {
		t.Fatalf("latency type = %q", types["adeptd_test_latency_seconds"])
	}
	if !strings.Contains(body, "adeptd_test_requests_total 7\n") {
		t.Fatalf("missing counter sample in:\n%s", body)
	}
	if !strings.Contains(body, `adeptd_test_latency_seconds_bucket{endpoint="plan",le="+Inf"} 3`) {
		t.Fatalf("missing +Inf bucket in:\n%s", body)
	}
	if !strings.Contains(body, `endpoint="we\"ird"`) {
		t.Fatalf("label escaping missing in:\n%s", body)
	}
	if !strings.Contains(body, "go_goroutines") {
		t.Fatal("runtime gauges missing")
	}

	// Monotone counters: a second scrape after more observations never
	// shows a smaller value.
	reqs.Add(5)
	hv.With("plan").Observe(0.2)
	rec2 := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec2.Body.String(), "adeptd_test_requests_total 12\n") {
		t.Fatal("counter not monotone across scrapes")
	}
	parseExposition(t, rec2.Body.String())
}

func TestTraceRecorder(t *testing.T) {
	var nilRec *TraceRecorder
	// Nil-receiver safety: all of these must be no-ops, not panics.
	nilRec.Phase("x")()
	nilRec.Span("x", time.Millisecond)
	nilRec.Count("ops", 1)
	nilRec.Set("k", "v")
	nilRec.Variant(VariantSpan{Name: "v"})
	nilRec.SetWinner("v")
	if nilRec.Trace() != nil {
		t.Fatal("nil recorder Trace() should be nil")
	}

	tr := NewTraceRecorder()
	end := tr.Phase("grow")
	time.Sleep(time.Millisecond)
	end()
	tr.Span("render", 2*time.Millisecond)
	tr.Count("evaluator_ops", 10)
	tr.Count("evaluator_ops", 5)
	tr.Set("snapshot_win", "grown")
	tr.Variant(VariantSpan{Name: "star", ElapsedMS: 1})
	tr.Variant(VariantSpan{Name: "heuristic", ElapsedMS: 3})
	tr.SetWinner("heuristic")
	got := tr.Trace()
	if len(got.Phases) != 2 || got.Phases[0].Name != "grow" || got.Phases[0].DurationMS <= 0 {
		t.Fatalf("phases = %+v", got.Phases)
	}
	if got.Counters["evaluator_ops"] != 15 {
		t.Fatalf("counters = %v", got.Counters)
	}
	if got.Attrs["snapshot_win"] != "grown" {
		t.Fatalf("attrs = %v", got.Attrs)
	}
	if got.Winner != "heuristic" {
		t.Fatalf("winner = %q", got.Winner)
	}
	// Variants sorted by name; winner flag set on the right one.
	if got.Variants[0].Name != "heuristic" || !got.Variants[0].Winner || got.Variants[1].Winner {
		t.Fatalf("variants = %+v", got.Variants)
	}
}

func TestTraceContext(t *testing.T) {
	ctx := t.Context()
	if TraceFrom(ctx) != nil {
		t.Fatal("empty ctx should have nil recorder")
	}
	tr := NewTraceRecorder()
	ctx = ContextWithTrace(ctx, tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("recorder not retrieved")
	}
	detached := DetachTrace(ctx)
	if TraceFrom(detached) != nil {
		t.Fatal("DetachTrace should mask the recorder")
	}
	// Detaching an untraced ctx is the identity.
	base := t.Context()
	if DetachTrace(base) != base {
		t.Fatal("DetachTrace on untraced ctx should return it unchanged")
	}
}

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("request IDs not unique: %q", a)
	}
	if !strings.Contains(a, "-") {
		t.Fatalf("request ID missing prefix separator: %q", a)
	}
	ctx := ContextWithRequestID(t.Context(), a)
	if got := RequestIDFrom(ctx); got != a {
		t.Fatalf("RequestIDFrom = %q, want %q", got, a)
	}
	if RequestIDFrom(t.Context()) != "" {
		t.Fatal("empty ctx should have empty request ID")
	}
}

func TestLoggerConstructors(t *testing.T) {
	var sb strings.Builder
	lg, err := NewLogger("json", &sb, ParseLevelMust("info"))
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", "v")
	if !strings.Contains(sb.String(), `"msg":"hello"`) {
		t.Fatalf("json log output: %q", sb.String())
	}
	sb.Reset()
	lg, err = NewLogger("text", &sb, ParseLevelMust("warn"))
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept")
	if strings.Contains(sb.String(), "dropped") || !strings.Contains(sb.String(), "kept") {
		t.Fatalf("level filtering wrong: %q", sb.String())
	}
	if _, err := NewLogger("xml", &sb, 0); err == nil {
		t.Fatal("expected error for unknown format")
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("expected error for unknown level")
	}
	NopLogger().Info("discarded")
}

// ParseLevelMust is a test helper.
func ParseLevelMust(s string) slog.Level {
	lv, err := ParseLevel(s)
	if err != nil {
		panic(err)
	}
	return lv
}

func TestJournal(t *testing.T) {
	j := NewJournal(3)
	if len(j.Snapshot()) != 0 || j.Total() != 0 {
		t.Fatal("new journal not empty")
	}
	for i := 1; i <= 5; i++ {
		seq := j.Append("detect", fmt.Sprintf("event %d", i), map[string]string{"i": strconv.Itoa(i)})
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if j.Total() != 5 {
		t.Fatalf("total = %d, want 5", j.Total())
	}
	snap := j.Snapshot()
	if len(snap) != 3 || snap[0].Seq != 3 || snap[2].Seq != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Fields["i"] != "3" {
		t.Fatalf("fields = %v", snap[0].Fields)
	}
	since, _ := j.SinceTruncated(4)
	if len(since) != 1 || since[0].Seq != 5 {
		t.Fatalf("since(4) = %+v", since)
	}
	if since, _ := j.SinceTruncated(5); since != nil {
		t.Fatal("since(latest) should be empty")
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Append("k", "m", nil)
				_ = j.Snapshot()
			}
		}()
	}
	wg.Wait()
	if j.Total() != 2000 {
		t.Fatalf("total = %d, want 2000", j.Total())
	}
	snap := j.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs: %d after %d", snap[i].Seq, snap[i-1].Seq)
		}
	}
}
