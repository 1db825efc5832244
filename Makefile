# STATS reproduction — build/verify entry points.
#
# `make test` is the tier-1 verify (ROADMAP.md) plus the benchmark module's
# own tests. `make race` is the concurrency tier: the whole suite under the
# race detector, including the scheduler's Submit/SubmitBatch/Go-vs-Close
# stress tests in internal/pool/race_test.go. `make stress` repeats the
# pool/core stress tests under the race detector across GOMAXPROCS 1, 2
# and 4. `make check` is the full local gate.

GO ?= go

.PHONY: build test check race stress vet catalogue bench-pool bench bench-gate bench-paper fuzz bench-obs serve-smoke chaos explore explore-long

build:
	$(GO) build ./...

# bench/ is a module of its own importing internal/*, so `go test ./...`
# at the root does not reach it.
test: build
	$(GO) test ./...
	cd bench && $(GO) test -short ./...

# The full local gate: tier-1 tests, the core-count stress matrix, the
# static-analysis suite, the telemetry-server smoke (boot, curl every
# endpoint, assert statuses), the allocation-budget gate over the
# profiler's warm paths, the fault-injection campaign, and the bounded
# schedule exploration.
check: test stress vet serve-smoke bench-gate chaos explore

race:
	$(GO) test -race ./...

# Core-count matrix over the pool/core stress tests, so a failure that only
# interleaves on some GOMAXPROCS (the SubmitBatch-vs-Close accounting race
# hid on a 1-CPU host for ten PRs) cannot hide again.
stress:
	$(GO) test -race -count=5 -cpu 1,2,4 ./internal/pool ./internal/core -run 'Stress|Race|Concurrent|Recycl'

# Static analysis: the standard Go vet, then statsvet — the IR/source
# passes over the checked-in example program and the runtime-API
# analyzers over the repository's user-facing Go code — then the
# count-each-fact-once guard: the engine and the pool report through
# obs.Observer.Note only.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/statsvet testdata/bodytrack.stats ./examples ./internal/workload ./stats
	$(GO) run ./cmd/statsvet -footprints cmd/statsvet/testdata/corpus/good/*.stats
	sh scripts/fact_guard.sh

# Regenerate the metric catalogue golden file from internal/obs's fact
# table; paste the result over the reference tables in DESIGN.md and
# README.md (tier-1 compares all three).
catalogue:
	$(GO) test ./internal/obs -run TestCatalogueGolden -update

# Scheduler benchmarks: sharded work-stealing pool vs the single-channel
# baseline, plus the engine's group fan-out across worker counts.
bench-pool:
	$(GO) test -run '^$$' -bench 'Submit|Fanout' -benchmem ./internal/pool ./internal/core

# Hot-path benchmark snapshot: the telemetry scrape-under-load and Emit
# microbenchmarks, the always-on profiler's warm paths (incremental span
# folding, windowed signals report), the engine's speculative run with
# the controlled scheduler off (nil fast path) and on, the
# deterministic-reservations protocol, and the engine's recycled hot
# path (warm vs cold run, grouping, hash-first acceptance), written to
# $(BENCH) (the checked-in regression reference continuing
# BENCH_pr9.json). The run also enforces the allocs/op ceilings in
# BENCH_budget.json.
BENCH ?= BENCH_pr10.json

bench:
	$(GO) run ./cmd/statsbench -out $(BENCH) -budget BENCH_budget.json

# Quick allocation-budget gate for `make check`: re-measure the profiler's
# warm paths and the engine's recycled hot path with a small -benchtime
# and fail on any allocs/op ceiling violation, without rewriting the
# checked-in snapshot.
bench-gate:
	$(GO) run ./cmd/statsbench -benchtime 100x -pkgs telemetry,core -budget BENCH_budget.json

# Full evaluation benchmarks (paper tables/figures). STATS_QUICK=1 scales
# budgets down for smoke runs.
bench-paper:
	$(GO) test -run '^$$' -bench . -benchmem .

# Boot a telemetry-serving run and curl every endpoint.
serve-smoke:
	sh scripts/serve_smoke.sh

# Chaos: the seeded fault-injection campaign (internal/fault) against the
# §3.1 output guarantee — aux panics, garbage speculative states, transient
# compute panics, delays; must not crash, must preserve outputs, and the
# failure counters must reconcile across Stats, the event log and a live
# /metrics scrape. The pinned seed keeps the injection schedule fixed.
chaos:
	$(GO) run ./cmd/statsexp -exp chaos -quick -seed 51966

# Systematic schedule exploration: every engine run's nondeterministic
# decision points (group dispatch, validate/squash races, steal choices)
# are driven by seeded controllers — alternating a random walk and PCT —
# and checked against the schedule-invariance/§3.1 output contracts;
# recorded traces are sampled for replay fidelity and any failure is
# delta-debugged to a minimal trace in testdata/schedules/. The quick
# variant is pinned and bounded for the local gate; explore-long sweeps
# the full schedule budget.
explore:
	$(GO) run ./cmd/statsexp -exp explore -quick -seed 51966 -schedules 6

explore-long:
	$(GO) run ./cmd/statsexp -exp explore -schedules 50

# Fuzzing. Front end: FuzzParse checks accepted inputs round-trip through
# a canonical re-rendering; FuzzTranslate checks translation invariants.
# Analysis: FuzzVerify drives random programs through the pipeline — the
# passes must never panic, pipeline output must verify, and
# verifier-accepted modules must be accepted by the back-end. Go runs one
# fuzz target per invocation, so three runs. Override the budget with
# FUZZTIME=1m etc.
FUZZTIME ?= 10s

fuzz:
	$(GO) test ./internal/frontend -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/frontend -run '^$$' -fuzz '^FuzzTranslate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analysis -run '^$$' -fuzz '^FuzzVerify$$' -fuzztime $(FUZZTIME)

# Observability-layer benchmarks: the disabled fast path (must stay under
# a handful of ns) and the enabled emit/observe costs.
bench-obs:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/obs
