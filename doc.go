// Package repro is a Go reproduction of "Unconventional Parallelization of
// Nondeterministic Applications" (Deiana, St-Amour, Dinda, Hardavellas,
// Campanoni — ASPLOS 2018): the STATS system, which satisfies *state
// dependences* of nondeterministic programs with compiler-generated
// auxiliary code, validated at run time against (possibly re-executed)
// original states.
//
// The public API lives in package repro/stats (the SDI/TI of §3.3 plus an
// autotuner, a shared-pool runtime and its telemetry). The internal packages
// implement the full system: the speculation runtime (internal/core), the
// three compilers (internal/frontend, internal/midend, internal/backend
// over internal/ir), the autotuner (internal/autotune), the profiler, the
// simulated evaluation platform and energy model, the seven benchmark
// reproductions (internal/workload/...), the related-work comparators, and
// the evaluation harness that regenerates every table and figure of §4
// (internal/harness, run by cmd/statsexp).
package repro
