# STATS reproduction — build/verify entry points.
#
# `make test` is the tier-1 verify (ROADMAP.md) plus the benchmark module's
# own tests. `make race` is the concurrency tier: the whole suite under the
# race detector, including the scheduler's Submit/SubmitBatch-vs-Close
# stress tests in internal/pool/race_test.go. `make stress` repeats the
# pool/core stress tests under the race detector across GOMAXPROCS 1, 2
# and 4, and the tracer's ring-wrap tests with them. `make check` is the full
# local gate.

GO ?= go

.PHONY: build test check race stress vet catalogue bench microbench microbench-smoke bench-paper fuzz serve-smoke chaos explore explore-long

build:
	$(GO) build ./...

# bench/ is a module of its own importing internal/*, so `go test ./...`
# at the root does not reach it.
test: build
	$(GO) test ./...
	cd bench && $(GO) test -short ./...

# The full local gate: tier-1 tests (which hold the allocation ceilings and
# run the stats package's Example walkthroughs), the core-count stress
# matrix, the static-analysis suite, the telemetry-server smoke (boot, curl
# every endpoint, assert statuses), one iteration of every microbenchmark,
# the fault-injection campaign, and the bounded schedule exploration.
check: test stress vet serve-smoke microbench-smoke chaos explore

race:
	$(GO) test -race ./...

# Core-count matrix over the pool/core stress tests, so a failure that only
# interleaves on some GOMAXPROCS (the SubmitBatch-vs-Close accounting race
# hid on a 1-CPU host for ten PRs) cannot hide again. Winners to FineGrain
# are the reservations rounds' placement tests (winners spread over lanes,
# the fan-out rule, the footprint oracle on in-place writes) and the
# conventional streaks' (a failure inside one, fine computes going
# conventional on the run's own measurements); the last two are the run's
# shape (the caller is lane 0, one pool task per further lane, a one-lane run
# stays on its caller, progress on a saturated pool), after them the state
# ownership tests (in-place and functional computes indistinguishable, clone
# counts). Then, on its own so its spinning readers do not skew the fan-out
# rule's measurements, internal/obs for its writers-lap-the-readers tests (the
# slot protocol has no busy mark to hide behind).
stress:
	$(GO) test -race -count=5 -cpu 1,2,4 ./internal/pool ./internal/core -run 'Stress|Race|Concurrent|Recycl|Resolver|Claimed|Winners|Granularity|InPlace|Streak|FineGrain|Lane|Saturated|Styles|CloneCounts'
	$(GO) test -race -count=5 -cpu 1,2,4 ./internal/obs -run 'Stress|Race|Lap'

# Static analysis: gofmt must have nothing to say, then the standard Go
# vet, then statsvet — the IR/source passes over the six workload
# declarations (internal/workload/*/*.stats) and the runtime-API analyzers
# over the repository's user-facing Go code (a directory walk skips _test.go
# files, so the stats Example walkthroughs are named by path) — then
# scripts/fact_guard.sh: the engine and the pool report through
# obs.Observer.Note only, the layering guard keeps internal/telemetry from
# importing internal/core, and the experiment-list guard keeps every figure
# on statsexp's one list (its header lists the rest).
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l . is not empty:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/statsvet internal/workload/*/*.stats ./internal/workload ./stats stats/example*_test.go
	$(GO) run ./cmd/statsvet -footprints internal/workload/*/*.stats
	sh scripts/fact_guard.sh

# Regenerate the metric catalogue golden file from internal/obs's fact
# table; paste the result over the reference tables in DESIGN.md and
# README.md (tier-1 compares all three).
catalogue:
	$(GO) test ./internal/obs -run TestCatalogueGolden -update

# The repository benchmark (BENCHMARK.json, bench/README.md): six
# real-goroutine workloads, gated end-to-end metrics and a per-layer
# ledger; `bash bench/run.sh --compare a.jsonl b.jsonl` compares two runs.
bench:
	bash bench/run.sh

# Every per-package Benchmark* function: the layer rows behind the
# benchmark's per-layer metrics. The allocs/op ceilings on the gated ones
# are tier-1 tests beside them (internal/telemetry/bench_test.go,
# internal/core/recycle_test.go).
microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/... ./stats

# One iteration of each, so a benchmark that panics or no longer compiles
# turns `make check` red; tier-1 never runs them.
microbench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/... ./stats

# The paper's evaluation at full scale: every table and figure, then the
# rigs, in harness.Experiments' order (`statsexp -exp <id>` runs one,
# -quick scales budgets down for a smoke run).
bench-paper:
	$(GO) run ./cmd/statsexp -exp all

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
# decision points (group dispatch, validate/squash races, reservation
# rounds) are driven by seeded controllers — alternating a random walk and
# PCT — and checked against the schedule-invariance/§3.1 output contracts;
# a sampled trace that does not replay exactly or a run that stalls fails
# the target, and any contract failure is delta-debugged to a minimal trace
# in testdata/schedules/. The quick variant is pinned and bounded for the
# local gate (~2 s at the harness's 25 schedules per row); explore-long
# doubles the schedule budget at full size.
explore:
	$(GO) run ./cmd/statsexp -exp explore -quick -seed 51966 -schedules 25

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
