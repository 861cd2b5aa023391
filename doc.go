// Package adept is ADePT — an Automatic Deployment Planning Tool for
// hierarchical Network-Enabled-Server middleware on heterogeneous
// platforms, reproducing Caron, Chouhan and Desprez, "Automatic Middleware
// Deployment Planning on Heterogeneous Platforms" (INRIA RR-6566, 2008).
//
// The module root only carries the benchmark harness (bench_test.go) that
// regenerates every table and figure of the paper; the implementation
// lives under internal/ and the executables under cmd/ (cmd/adept for
// one-shot planning, cmd/adeptd for the planning-as-a-service daemon,
// cmd/nes and cmd/experiments for the middleware and paper harness):
//
//   - internal/autonomic   — MAPE-K control loop: drift detection and
//     live hierarchy patching over a running deployment
//   - internal/core        — the planning heuristic (Algorithm 1) and the
//     incremental placement evaluator its hot path plans through
//   - internal/model       — the steady-state performance model (Eqs. 1–16)
//   - internal/hierarchy   — deployment trees, diff/patch engine, XML
//   - internal/platform    — heterogeneous platform descriptions
//   - internal/scenario    — declarative platform-family generators
//     (star, bimodal, power-law, clustered, trace-perturbed)
//   - internal/portfolio   — every stock planner run in order; the best plan wins
//   - internal/baseline    — star / balanced / d-ary / exhaustive planners
//   - internal/sim         — discrete-event M(r,s,w) simulator
//   - internal/runtime     — concurrent goroutine middleware (chan/TCP)
//   - internal/deploy      — GoDIET-style XML launcher
//   - internal/service     — planning daemon: registry, plan cache, pool
//   - internal/workload    — DGEMM workloads and client demands
//   - internal/blas        — DGEMM kernels (naive / blocked)
//   - internal/calib       — Table 3 parameter measurement
//   - internal/experiments — one driver per paper table/figure
//   - internal/stats       — regression and summary statistics
//
// See README.md for a walkthrough; go run ./cmd/experiments prints the
// paper-vs-measured results.
package adept
