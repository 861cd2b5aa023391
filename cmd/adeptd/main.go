// Command adeptd serves deployment planning over HTTP: the long-running
// ADePT daemon. It wraps internal/service — a platform registry
// (journalled to -platform-dir so registrations survive restarts), a
// content-addressed plan cache of pre-rendered responses,
// singleflight coalescing of identical concurrent requests, and a
// bounded worker pool that sheds excess load with 429 + Retry-After —
// behind a JSON API:
//
//	POST   /v1/plan              plan one deployment (cache-accelerated)
//	POST   /v1/plan/batch        fan one call out over many requests
//	GET    /v1/platforms         list registered platform names
//	GET    /v1/platforms/{name}  fetch a platform description
//	PUT    /v1/platforms/{name}  register/replace a platform description
//	DELETE /v1/platforms/{name}  remove a platform
//	GET    /v1/metrics           counters, cache stats, p50/p99 latency
//	GET    /metrics              Prometheus text exposition of the same
//	POST   /v1/deploy            launch a plan on the live middleware
//	POST   /v1/autonomic/start   deploy + start the MAPE-K control loop
//	POST   /v1/autonomic/stop    stop the loop and tear the system down
//	GET    /v1/autonomic/status  adaptation history, patches, throughput
//	GET    /v1/autonomic/events  the MAPE-K decision journal (?since=SEQ)
//	GET    /v1/autonomic/incidents  correlated incident records with MTTR
//	POST   /v1/autonomic/inject  background-load drift on a live server
//	GET    /v1/slo               SLO compliance, error budgets, burn rates
//	GET    /v1/alerts            burn-rate alert rule states + transitions
//	GET    /v1/cluster           ring membership, peer health, key ownership
//	POST   /v1/cluster/invalidate  peer registry-invalidation webhook (HMAC)
//	GET    /healthz              liveness probe
//	GET    /readyz               readiness probe (registry loaded, pool open)
//
// POST /v1/deploy and POST /v1/autonomic/start take the body of
// POST /v1/plan (platform, platform_name or scenario, and the rest) plus
// their own fields, answer a planning failure exactly as /v1/plan does
// (400 / 422 / 429 + Retry-After / 504), and launch what was planned
// through internal/deploy ("transport": "chan" or "tcp"). Autonomic start's
// simulated backend takes its schedule of background-load phases under
// "drift".
//
// Clustering: -peers runs the daemon as one member of a static cluster.
// Every member is started with the same comma-separated membership list
// (its own -peer-self URL included); a consistent-hash ring over plan
// content addresses routes each /v1/plan request to the peer owning its
// digest (one hop at most — forwarded requests are always planned where
// they land), so the fleet shares one logical plan cache. Registry
// writes (PUT/DELETE /v1/platforms/*) carry monotonic versions and fan
// out to peers as HMAC-signed invalidation webhooks (-peer-secret or
// $ADEPTD_PEER_SECRET), converging every member's registry. A peer
// failure degrades to local planning — never to a client-visible error.
// Without -peers the daemon is the plain single-node service: no extra
// listeners, no peer traffic, byte-identical behaviour.
//
// Observability: GET /metrics serves Prometheus text exposition,
// GET /v1/autonomic/events the MAPE-K decision journal, and every
// response carries an X-Request-ID that also appears in the structured
// logs (-log-format json|text, -log-level debug|info|warn|error).
// -debug-addr starts a second listener serving net/http/pprof, kept off
// the public mux so profiling endpoints are never exposed by accident.
//
// Usage:
//
//	adeptd [-addr :8080] [-platform-dir dir] [-cache 256]
//	       [-workers N] [-queue 64] [-plan-timeout 30s]
//	       [-log-format text] [-log-level info] [-debug-addr addr]
//	       [-peers url1,url2,... -peer-self url] [-peer-secret s]
//	       [-peer-forward-timeout 2s]
//
// -platform-dir both preloads *.json platforms at startup and receives
// the write-through journal of later PUT /v1/platforms calls (atomic
// temp-file renames). -workers bounds concurrent planner runs and -queue
// the requests waiting for one of those slots; when both are full the
// daemon answers 429 with Retry-After instead of blocking (see
// cmd/adeptload for measuring this under load).
//
// Example session:
//
//	adeptd -addr :8080 &
//	curl -X PUT localhost:8080/v1/platforms/lyon --data @platform.json
//	curl -X POST localhost:8080/v1/plan \
//	     -d '{"platform_name":"lyon","dgemm_n":310}'
//	curl localhost:8080/v1/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on http.DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adept/internal/cluster"
	"adept/internal/obs"
	"adept/internal/service"
	"adept/internal/slo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adeptd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		platformDir = flag.String("platform-dir", "", "directory of *.json platforms to preload into the registry")
		cacheSize   = flag.Int("cache", 256, "plan cache capacity (entries)")
		workers     = flag.Int("workers", 0, "concurrent planner runs (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "queued planning jobs beyond the workers")
		planTimeout = flag.Duration("plan-timeout", 30*time.Second, "server-side cap on one planning run")
		logFormat   = flag.String("log-format", "text", "log output format: text, json")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		sloConfig   = flag.String("slo-config", "", "JSON file of SLO objectives and burn-rate alert rules (empty = built-in defaults)")
		sampleEvery = flag.Duration("sample-interval", time.Second, "time-series sampling and SLO evaluation tick")

		peers       = flag.String("peers", "", "comma-separated base URLs of every cluster member, this one included (empty = single-node)")
		peerSelf    = flag.String("peer-self", "", "this member's own base URL as it appears in -peers")
		peerSecret  = flag.String("peer-secret", "", "shared HMAC secret signing peer invalidation webhooks (default $ADEPTD_PEER_SECRET)")
		peerTimeout = flag.Duration("peer-forward-timeout", 2*time.Second, "deadline for one forwarded plan exchange or webhook delivery attempt")
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

	var sloCfg *slo.Config
	if *sloConfig != "" {
		data, err := os.ReadFile(*sloConfig)
		if err != nil {
			return err
		}
		cfg, err := slo.ParseConfig(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *sloConfig, err)
		}
		sloCfg = &cfg
	}

	srv, err := service.New(service.Config{
		CacheSize:      *cacheSize,
		Workers:        *workers,
		QueueDepth:     *queue,
		PlanTimeout:    *planTimeout,
		Logger:         logger,
		SLO:            sloCfg,
		SampleInterval: *sampleEvery,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	// The server owns its registry, empty and unjournalled as built. Hold
	// /readyz at 503 until the preload below has filled it and switched
	// its journal on; liveness (/healthz) answers 200 the moment the
	// listener is up.
	srv.SetReady(false)

	if *platformDir != "" {
		// The platform dir is both the journal and the startup preload:
		// PUT /v1/platforms/* writes through to it (atomic temp-file
		// rename), so a restart pointed here keeps its registrations.
		// PersistTo creates the directory; LoadDir does not re-journal
		// what it reads.
		if err := srv.Registry().PersistTo(*platformDir); err != nil {
			return err
		}
		names, err := srv.Registry().LoadDir(*platformDir)
		if err != nil {
			return err
		}
		logger.Info("platforms loaded", "count", len(names), "dir", *platformDir, "names", fmt.Sprint(names))
	}

	if *peers != "" {
		secret := *peerSecret
		if secret == "" {
			secret = os.Getenv("ADEPTD_PEER_SECRET")
		}
		if *peerSelf == "" {
			return fmt.Errorf("-peers requires -peer-self (this member's own URL from the list)")
		}
		node, err := cluster.New(cluster.Config{
			Self:           *peerSelf,
			Peers:          strings.Split(*peers, ","),
			Secret:         secret,
			ForwardTimeout: *peerTimeout,
			Registry:       srv.Registry(),
			Cache:          srv.Cache(),
			Logger:         logger,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		srv.EnableCluster(node)
		logger.Info("cluster enabled", "self", *peerSelf, "peers", fmt.Sprint(node.Ring().Peers()))
	}
	srv.SetReady(true)

	if *debugAddr != "" {
		// pprof registered itself on http.DefaultServeMux via the blank
		// import; serve that mux on a separate listener so profiling never
		// leaks onto the public API address.
		go func() {
			logger.Info("debug listener (pprof) starting", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Error("debug listener failed", "error", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("adeptd listening", "addr", *addr, "planners", fmt.Sprint(service.PlannerNames()))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		// Drain in-flight requests (a long exhaustive plan or a /v1/deploy
		// load window) before exiting; give up after a grace period.
		logger.Info("signal received, draining", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return httpSrv.Close()
		}
		return nil
	}
}
