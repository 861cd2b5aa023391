// Command adeptload is a closed-loop load generator for the adeptd
// planning daemon: the serving-layer counterpart of scripts/bench.sh. It
// drives POST /v1/plan with a configurable mix of hot keys (repeated
// requests that coalesce and hit the plan cache) and cold keys (unique
// content addresses that force a fresh planner run), paces them at a
// target request rate, and reports achieved throughput, a latency
// histogram with percentiles, and the daemon-side outcome mix (cached /
// coalesced / fresh / shed).
//
// Usage:
//
//	adeptload [-url http://localhost:8080] [-duration 10s] [-rps 200]
//	          [-conns 8] [-hot 0.9] [-hot-keys 4] [-nodes 60]
//	          [-planner heuristic] [-seed 1] [-json]
//
// -url accepts a comma-separated list of targets for clustered adeptd
// fleets: requests round-robin across every target, hot platforms are
// registered on the first target and polled on all of them until the
// cluster's registry replication converges, and the daemon-side counter
// deltas are summed across every member — a load window against a
// cluster is one logical run, not N disjoint ones. (The old single-URL
// behaviour scraped whichever peer -url named and silently attributed
// the whole cluster's work to it.)
//
// With -rps 0 the workers run unpaced (pure closed loop: each connection
// issues its next request as soon as the previous one answers), which
// measures the daemon's saturation throughput. A paced run held below
// saturation measures latency under load instead; 429 responses count as
// shed, not as errors, since backpressure is the daemon behaving as
// configured (see -queue on adeptd).
//
// The generator scrapes every target's GET /metrics exposition before
// and after the window; the -json summary then carries a "server" object
// of daemon-side counter deltas (requests, plans executed, cache hits
// and misses, coalesced, rejected, peer forwards/fallbacks) so client-
// and server-side views of the same run land in one artifact. A scrape
// failure on any target is a hard error: a partial scrape would report
// deltas that silently undercount the fleet.
//
// The generator registers its hot platforms under adeptload-hot-<i> via
// PUT /v1/platforms, so the daemon must be reachable before the run.
// Exit status is non-zero when no request succeeded.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adept/internal/obs"
	"adept/internal/scenario"
	"adept/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adeptload:", err)
		os.Exit(1)
	}
}

// planWire is the subset of adeptd's request/response bodies the
// generator needs; duplicating the three fields keeps the binary free of
// a dependency on internal/service's server types.
type planWire struct {
	PlatformName string  `json:"platform_name,omitempty"`
	Planner      string  `json:"planner,omitempty"`
	Wapp         float64 `json:"wapp,omitempty"`
	DgemmN       int     `json:"dgemm_n,omitempty"`
}

type planAnswer struct {
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
}

// recorder accumulates one worker's observations; workers never share a
// recorder, so recording is lock-free and merged after the run.
type recorder struct {
	latencies []float64 // seconds, successful requests only
	ok        int
	shed      int // 429: admission control, not an error
	errors    int
	cached    int
	coalesced int
	fresh     int
}

func (r *recorder) merge(o *recorder) {
	r.latencies = append(r.latencies, o.latencies...)
	r.ok += o.ok
	r.shed += o.shed
	r.errors += o.errors
	r.cached += o.cached
	r.coalesced += o.coalesced
	r.fresh += o.fresh
}

func run() error {
	var (
		url       = flag.String("url", "http://localhost:8080", "adeptd base URL, or a comma-separated list of cluster peers")
		duration  = flag.Duration("duration", 10*time.Second, "load window")
		rps       = flag.Float64("rps", 0, "target request rate (0 = unpaced closed loop)")
		conns     = flag.Int("conns", 8, "concurrent closed-loop connections")
		hot       = flag.Float64("hot", 0.9, "fraction of requests on hot keys (cache/coalesce path)")
		hotKeys   = flag.Int("hot-keys", 4, "number of distinct hot keys")
		nodes     = flag.Int("nodes", 60, "platform size (nodes) per key")
		planner   = flag.String("planner", "", "planner to request (default heuristic)")
		seed      = flag.Int64("seed", 1, "platform generation seed")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request client timeout")
		jsonOut   = flag.Bool("json", false, "emit a JSON summary instead of text")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text, json (the summary stays on stdout)")
		logLevel  = flag.String("log-level", "warn", "diagnostic log level: debug, info, warn, error")
		maxShed   = flag.Float64("max-shed", -1, "fail (exit nonzero) when the shed fraction exceeds this (e.g. 0.05; negative = no gate)")
		maxP99    = flag.Float64("max-p99-ms", -1, "fail (exit nonzero) when successful-request p99 exceeds this many ms (negative = no gate)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(*logFormat, os.Stderr, level)
	if err != nil {
		return err
	}
	if *conns <= 0 || *hotKeys <= 0 || *nodes < 2 {
		return fmt.Errorf("need positive -conns/-hot-keys and -nodes >= 2")
	}
	if *hot < 0 || *hot > 1 {
		return fmt.Errorf("-hot %g outside [0,1]", *hot)
	}

	targets := strings.Split(*url, ",")
	for i := range targets {
		targets[i] = strings.TrimRight(strings.TrimSpace(targets[i]), "/")
		if targets[i] == "" {
			return fmt.Errorf("-url contains an empty target in %q", *url)
		}
	}

	client := &http.Client{Timeout: *timeout}

	// Register the hot platforms on the first target. Each hot key is one
	// (platform, dgemm) pair, so repeated requests against it share one
	// content address. Against a cluster the registration replicates via
	// invalidation webhooks; the convergence wait below makes sure every
	// member can resolve the names before load starts.
	for i := 0; i < *hotKeys; i++ {
		p, err := scenario.Spec{
			Family: scenario.Clustered, Name: fmt.Sprintf("adeptload-hot-%d", i), N: *nodes,
			MinPower: 100, MaxPower: 800, Seed: *seed + int64(i),
		}.Generate()
		if err != nil {
			return err
		}
		body, err := p.MarshalIndent()
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPut,
			fmt.Sprintf("%s/v1/platforms/adeptload-hot-%d", targets[0], i), bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("register platform: %w (is adeptd running at %s?)", err, targets[0])
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("register platform: status %d", resp.StatusCode)
		}
	}
	if err := waitRegistered(client, targets, *hotKeys); err != nil {
		return err
	}
	logger.Info("hot platforms registered on every target", "targets", len(targets), "hot_keys", *hotKeys)

	before, err := scrapeAll(client, targets)
	if err != nil {
		return fmt.Errorf("pre-run metrics scrape: %w", err)
	}

	// Pacing: a token channel filled at the target rate. Unpaced runs get
	// a nil channel (never selected) and issue back to back.
	var tokens chan struct{}
	stop := make(chan struct{})
	if *rps > 0 {
		tokens = make(chan struct{}, *conns)
		interval := time.Duration(float64(time.Second) / *rps)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default: // generator is behind; drop the token, not the pace
					}
				}
			}
		}()
	}

	var coldSeq atomic.Int64
	deadline := time.Now().Add(*duration)
	recs := make([]*recorder, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conns; w++ {
		rec := &recorder{}
		recs[w] = rec
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			// Round-robin across the fleet, each worker starting at its
			// own offset so the first requests spread over every target.
			turn := w
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-tokens:
					case <-time.After(time.Until(deadline)):
						return
					}
				}
				target := targets[turn%len(targets)]
				turn++
				wire := planWire{
					PlatformName: fmt.Sprintf("adeptload-hot-%d", rng.Intn(*hotKeys)),
					Planner:      *planner,
					DgemmN:       310,
				}
				if rng.Float64() >= *hot {
					// Cold key: a unique Wapp yields a unique content
					// address, forcing a fresh planner run.
					wire.DgemmN = 0
					wire.Wapp = 1e6 + float64(coldSeq.Add(1))
				}
				body, err := json.Marshal(wire)
				if err != nil {
					rec.errors++
					continue
				}
				t0 := time.Now()
				resp, err := client.Post(target+"/v1/plan", "application/json", bytes.NewReader(body))
				if err != nil {
					rec.errors++
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var ans planAnswer
					if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
						rec.errors++
					} else {
						rec.ok++
						rec.latencies = append(rec.latencies, time.Since(t0).Seconds())
						switch {
						case ans.Cached:
							rec.cached++
						case ans.Coalesced:
							rec.coalesced++
						default:
							rec.fresh++
						}
					}
				case http.StatusTooManyRequests:
					rec.shed++
				default:
					rec.errors++
				}
				// Drain before closing so the keep-alive connection is
				// reused; otherwise every shed/error response costs a fresh
				// TCP setup and the generator measures connection churn.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	elapsed := time.Since(start)

	total := &recorder{}
	for _, rec := range recs {
		total.merge(rec)
	}

	after, err := scrapeAll(client, targets)
	if err != nil {
		return fmt.Errorf("post-run metrics scrape: %w", err)
	}
	server := metricDeltas(before, after)
	s := report(total, server, elapsed, *jsonOut)
	if total.ok == 0 {
		return fmt.Errorf("no request succeeded (%d shed, %d errors)", total.shed, total.errors)
	}
	// Quality gates for CI: the run itself succeeded, but the measured
	// service level may still be unacceptable.
	if *maxShed >= 0 && s.Requests > 0 {
		if frac := float64(s.Shed) / float64(s.Requests); frac > *maxShed {
			return fmt.Errorf("shed fraction %.4f exceeds -max-shed %.4f (%d of %d requests)", frac, *maxShed, s.Shed, s.Requests)
		}
	}
	if *maxP99 >= 0 && s.P99Millis > *maxP99 {
		return fmt.Errorf("p99 %.2fms exceeds -max-p99-ms %.2fms", s.P99Millis, *maxP99)
	}
	return nil
}

// serverDeltas are daemon-side counter increments over the load window,
// computed from two GET /metrics scrapes. They cross-check the client's
// view: e.g. client-side cached+coalesced should track the daemon's
// cache-hit and coalesced increments.
type serverDeltas struct {
	Requests      int64 `json:"requests"`
	PlansExecuted int64 `json:"plans_executed"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	Coalesced     int64 `json:"coalesced"`
	Rejected      int64 `json:"rejected"`
	// PeerForwards and PeerFallbacks come from the adeptd_peer_* families
	// and stay zero against a single-node daemon (the families are absent
	// there, and an absent metric deltas to zero).
	PeerForwards  int64 `json:"peer_forwards"`
	PeerFallbacks int64 `json:"peer_fallbacks"`
}

// waitRegistered polls every target until it resolves all hot platform
// names — against a cluster this is the registry replication converging;
// against a single daemon it passes on the first round.
func waitRegistered(client *http.Client, targets []string, hotKeys int) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		pending := ""
	scan:
		for _, target := range targets {
			for i := 0; i < hotKeys; i++ {
				resp, err := client.Get(fmt.Sprintf("%s/v1/platforms/adeptload-hot-%d", target, i))
				if err != nil {
					return fmt.Errorf("poll %s: %w", target, err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					pending = fmt.Sprintf("%s missing adeptload-hot-%d (status %d)", target, i, resp.StatusCode)
					break scan
				}
			}
		}
		if pending == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hot platforms did not replicate to every target: %s", pending)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// scrapeAll scrapes every target and sums the family totals, so the
// deltas describe the whole fleet. Any failed scrape fails the run: a
// partial sum would silently undercount.
func scrapeAll(client *http.Client, targets []string) (map[string]float64, error) {
	sums := make(map[string]float64)
	for _, target := range targets {
		one, err := scrapeMetrics(client, target)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", target, err)
		}
		for name, v := range one {
			sums[name] += v
		}
	}
	return sums, nil
}

// scrapeMetrics fetches url/metrics and sums every series into its
// family total, labels stripped — adeptd_requests_total{endpoint="plan"}
// and {endpoint="metrics"} fold into one adeptd_requests_total number.
// Histogram series (_bucket) are skipped: their cumulative le buckets
// would overcount the family.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	sums := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		sums[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sums, nil
}

// metricDeltas subtracts two scrapes for the counters the load report
// cares about.
func metricDeltas(before, after map[string]float64) *serverDeltas {
	d := func(name string) int64 { return int64(after[name] - before[name]) }
	return &serverDeltas{
		Requests:      d("adeptd_requests_total"),
		PlansExecuted: d("adeptd_plans_executed_total"),
		CacheHits:     d("adeptd_cache_hits_total"),
		CacheMisses:   d("adeptd_cache_misses_total"),
		Coalesced:     d("adeptd_coalesced_total"),
		Rejected:      d("adeptd_rejected_total"),
		PeerForwards:  d("adeptd_peer_forwards_total"),
		PeerFallbacks: d("adeptd_peer_fallbacks_total"),
	}
}

// summary is the -json output schema.
type summary struct {
	DurationSeconds float64       `json:"duration_seconds"`
	Requests        int           `json:"requests"`
	OK              int           `json:"ok"`
	Shed            int           `json:"shed"`
	Errors          int           `json:"errors"`
	Cached          int           `json:"cached"`
	Coalesced       int           `json:"coalesced"`
	Fresh           int           `json:"fresh"`
	AchievedRPS     float64       `json:"achieved_rps"`
	P50Millis       float64       `json:"p50_ms"`
	P90Millis       float64       `json:"p90_ms"`
	P99Millis       float64       `json:"p99_ms"`
	MaxMillis       float64       `json:"max_ms"`
	Server          *serverDeltas `json:"server,omitempty"`
}

func report(r *recorder, server *serverDeltas, elapsed time.Duration, asJSON bool) summary {
	s := summary{
		DurationSeconds: elapsed.Seconds(),
		Requests:        r.ok + r.shed + r.errors,
		OK:              r.ok,
		Shed:            r.shed,
		Errors:          r.errors,
		Cached:          r.cached,
		Coalesced:       r.coalesced,
		Fresh:           r.fresh,
		AchievedRPS:     float64(r.ok) / elapsed.Seconds(),
		Server:          server,
	}
	if len(r.latencies) > 0 {
		s.P50Millis = stats.Percentile(r.latencies, 50) * 1e3
		s.P90Millis = stats.Percentile(r.latencies, 90) * 1e3
		s.P99Millis = stats.Percentile(r.latencies, 99) * 1e3
		max := r.latencies[0]
		for _, v := range r.latencies {
			if v > max {
				max = v
			}
		}
		s.MaxMillis = max * 1e3
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s)
		return s
	}

	fmt.Printf("adeptload: %d requests in %.2fs (%.1f ok req/s)\n", s.Requests, s.DurationSeconds, s.AchievedRPS)
	fmt.Printf("  ok %d (cached %d, coalesced %d, fresh %d)  shed(429) %d  errors %d\n",
		s.OK, s.Cached, s.Coalesced, s.Fresh, s.Shed, s.Errors)
	if server != nil {
		fmt.Printf("  server: requests %d, plans executed %d, cache %d/%d hit/miss, coalesced %d, rejected %d\n",
			server.Requests, server.PlansExecuted, server.CacheHits, server.CacheMisses, server.Coalesced, server.Rejected)
		if server.PeerForwards > 0 || server.PeerFallbacks > 0 {
			fmt.Printf("  cluster: peer forwards %d, fallbacks %d\n", server.PeerForwards, server.PeerFallbacks)
		}
	}
	if len(r.latencies) == 0 {
		return s
	}
	fmt.Printf("  latency p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms\n",
		s.P50Millis, s.P90Millis, s.P99Millis, s.MaxMillis)
	printHistogram(r.latencies)
	return s
}

// printHistogram renders successful-request latencies into doubling
// buckets starting at 0.25ms.
func printHistogram(latencies []float64) {
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	edge := 0.25e-3
	counts := []int{}
	edges := []float64{}
	i := 0
	for i < len(sorted) {
		n := 0
		for i < len(sorted) && sorted[i] < edge {
			n++
			i++
		}
		counts = append(counts, n)
		edges = append(edges, edge)
		edge *= 2
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for b, c := range counts {
		if c == 0 && (b == 0 || counts[b-1] == 0) {
			continue // skip leading/embedded empty runs at the edges
		}
		bar := ""
		if maxCount > 0 {
			bar = string(bytes.Repeat([]byte{'#'}, c*40/maxCount))
		}
		fmt.Printf("  < %8.2fms %6d %s\n", edges[b]*1e3, c, bar)
	}
}
