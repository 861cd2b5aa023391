// Package service turns the one-shot planning pipeline into a long-running
// planning-as-a-service daemon — the direction the paper's future-work
// section sketches for ADePT and the role played by the long-lived
// deployment services of the related work (Flissi & Merle's deployment
// framework, Dearle et al.'s autonomic middleware).
//
// Four concrete types, each usable on its own, and one file per concern
// around them:
//
//   - registry.go — Registry: one map of versioned registers, one per
//     name, where a tombstone (a deleted name's version) is an entry too;
//     optimistic concurrency (If-Match) and a journal (LoadDir,
//     PersistTo). Every write — PUT, DELETE, a peer's update — commits
//     through one step that decides its version, journals it and only then
//     installs it. A live entry keeps the platform as columns and its
//     content digest, both built once when it is written — a PUT body and
//     a journal are decoded into the columns by DecodeJSON, straight when
//     they are in the form pools are written in
//   - cache.go — PlanCache: content-addressed plan cache, one LRU
//     (internal/lru) under one mutex, and the one key function (planKey)
//   - pool.go, coalesce.go — Pool: counting semaphore bounding concurrent
//     planner runs, with a bounded fail-fast wait queue; the flight group
//     that shares one run among identical concurrent requests
//   - server.go — Server: Config, New/Close, the route table, the
//     per-request instrumentation and the JSON helpers
//   - request.go, plan.go — the plan path. request.go is what a request is
//     and how it is resolved (the planners table, PlanRequest, resolve);
//     plan.go is how it is answered: Server.plan stage by stage, the
//     flight body (runPlan), the one error → status decision (planStatus),
//     and the /v1/plan and /v1/plan/batch handlers — /v1/plan decoding its
//     inline platform straight into columns (decodePlanRequest)
//   - launch.go, autonomic.go — the two handlers that launch what was
//     planned, /v1/deploy and /v1/autonomic/*, behind one hand-off
//     (planForLaunch) and one launcher (internal/deploy)
//   - platforms.go — /v1/platforms CRUD and the ETag / If-Match grammar
//   - observability.go, metrics.go — the SLO wiring and its sampler, the
//     Prometheus gauges, /v1/metrics, /v1/slo, /v1/alerts, the probes and
//     the event journal endpoint; the request counters behind them
//   - cluster.go — Cluster, the seam internal/cluster plugs into to lift
//     the cache's digest sharding and the registry's versioning across
//     processes (RegistryUpdate, Registry.ApplyRemote). It is the one
//     interface in the package: it has a real second side (nil means
//     single-node mode) and must not be imported from here.
//
// The planner is a pure function of its inputs, so a plan is addressed by
// them (planKey): the planner, the costs, the service cost, the demand
// and a digest of whatever names the platform in the request — a scenario
// spec, a registered name's stored digest, or the inline nodes. The
// address is known before any node is materialised, and the cache is
// asked first: a hit is O(1) in the size of the pool, and only a miss
// generates, validates and plans — once, inside the coalesced flight,
// under a pool slot (Server.plan). Every planner is handed the pool as
// platform.Columns, whatever its source (planInput.request): a scenario is
// drawn as its power and link columns, an inline platform is converted
// into columns — its one validation — and a registered platform's columns
// were built, and validated, when it was written. Every planner, the
// baselines included, plans from those columns; only what is launched
// (planForLaunch) expands them into whole nodes.
//
// Server builds its own Registry, PlanCache and Pool; cmd/adeptd is the
// thin binary around it and examples/service is a client walkthrough.
package service
