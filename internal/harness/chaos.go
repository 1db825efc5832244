package harness

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// The chaos experiment turns the paper's correctness claim (§3.1: a failed
// speculation never changes the program's output) adversarial. A seeded
// fault injector (internal/fault) manufactures failures the validation
// layer was never told about — auxiliary code that panics, speculative
// states that are garbage, compute lanes that die or stall — and each
// scenario checks three things: the process never crashes, the outputs are
// identical to an uninjected sequential baseline, and the failure
// accounting reconciles exactly across the engine's Stats, the observer's
// event log, and a live /metrics scrape of a telemetry server running over
// the same runs.

// The fixture state is a slice of slots: one slot holding an exact prefix
// sum, so the auxiliary code can be made exact and every corruption is
// detectable — or, for the lying footprint, chaosLieSlots slots.

// chaosOps supplies clone and exact-match acceptance for the fixture state.
func chaosOps() core.StateOps[[]float64] {
	return core.StateOps[[]float64]{
		Clone: slices.Clone[[]float64],
		MatchAny: func(spec []float64, originals [][]float64) bool {
			return slices.ContainsFunc(originals, func(o []float64) bool { return slices.Equal(spec, o) })
		},
	}
}

// chaosCompute is deterministic and state-coupled: the output embeds the
// running sum, so a wrong state chain corrupts outputs detectably.
func chaosCompute(_ *rng.Source, in int, s []float64) (int, []float64) {
	s[0] += float64(in)
	return in*2 + int(s[0]), s
}

// chaosAux is exact when the engine's window covers the whole prefix
// (the scenarios set Window = len(inputs)): initial state plus the sum of
// everything before the group is the true state.
func chaosAux(_ *rng.Source, init []float64, recent []int) []float64 {
	for _, v := range recent {
		init[0] += float64(v)
	}
	return init
}

// chaosGarbage corrupts a speculative state so no original can match it.
func chaosGarbage(s []float64) []float64 {
	s[0] -= 1e12
	return s
}

// ChaosScenario is one injection campaign.
type ChaosScenario struct {
	// Name labels the scenario's table row.
	Name string
	// Cfg is the injector configuration (rates are per call site).
	Cfg fault.Config
	// ComputeOnce arms transient compute panics (fault.WrapComputeOnce,
	// one fresh wrapper per engine run).
	ComputeOnce bool
	// Protocol selects the speculation protocol the scenario runs under
	// (the zero value is the default aux protocol).
	Protocol core.Protocol
	// FootprintLie switches the scenario to the chaosLieSlots-slot
	// dependence whose compute touches a state slot its declared footprint
	// omits, with the runtime footprint oracle armed
	// (Options.FootprintCheck).
	FootprintLie bool
	// GroupTimeout is passed to the engine (0 disables deadlines).
	GroupTimeout time.Duration
	// Breaker attaches a fresh circuit breaker across the scenario's runs.
	Breaker bool
	// Runs is how many engine runs the scenario performs over the same
	// input block (chunked, so the breaker sees a run sequence).
	Runs int
}

// ChaosResult is one scenario's outcome.
type ChaosResult struct {
	Name string
	Runs int
	// Stats sums the engine's accounts over the runs (Stats.Add). AuxCalls
	// is the schedule's: a group squashed before its lane task started never
	// calls its aux. Rounds is nonzero when a reservations scenario engaged
	// the reserve/check/commit machinery before its faults landed.
	core.Stats
	// Injected faults, per site, as counted by the injector.
	AuxPanics, Garbage, ComputePanics, Delays uint64
	// BreakerTrips is the breaker's lifetime trip count (0 without one).
	BreakerTrips int64
	// MidScrapes counts /metrics expositions parsed between runs.
	MidScrapes int
	// OutputsIdentical is true when every run's outputs and final state
	// equal the uninjected sequential baseline's.
	OutputsIdentical bool
	// Reconciled is true when every account of the campaign agrees
	// (chaosReconciled).
	Reconciled bool
}

// chaosScenarios returns the standard campaign. The acceptance bar is the
// 10% aux-panic and garbage scenarios; the others cross the remaining
// fault sites with the runtime's defenses (deadlines, the breaker).
func chaosScenarios(seed uint64) []ChaosScenario {
	return []ChaosScenario{
		{Name: "aux-panic 10%", Cfg: fault.Config{Seed: seed, AuxPanicRate: 0.10}, Runs: 3},
		{Name: "garbage 10%", Cfg: fault.Config{Seed: seed + 1, GarbageRate: 0.10}, Runs: 3},
		{Name: "aux+garbage 10%", Cfg: fault.Config{Seed: seed + 2, AuxPanicRate: 0.10, GarbageRate: 0.10}, Runs: 3},
		{Name: "compute transient", Cfg: fault.Config{Seed: seed + 3, ComputePanicRate: 0.25}, ComputeOnce: true, Runs: 3},
		{Name: "mixed + breaker", Cfg: fault.Config{Seed: seed + 4, AuxPanicRate: 0.3, GarbageRate: 0.3}, Breaker: true, Runs: 8},
		{Name: "delay + deadline", Cfg: fault.Config{Seed: seed + 5, DelayRate: 0.3, Delay: 3 * time.Millisecond}, GroupTimeout: time.Millisecond, Runs: 2},
		// The same transient-compute-panic campaign under deterministic
		// reservations. The dependence has no slots, so one input commits per
		// round, no wave fans out and rounds alternate with conventional
		// streaks; at this rate the panic lands in the first groups — in a
		// round, or in the first streak with nothing of it committed — and
		// at the lower one after streaks have committed. The round or the
		// streak is squashed and the run falls back sequentially — outputs
		// must still be byte-identical to the uninjected baseline.
		{Name: "reservations transient", Cfg: fault.Config{Seed: seed + 6, ComputePanicRate: 0.25}, ComputeOnce: true, Protocol: core.ProtocolReservations, Runs: 3},
		{Name: "reservations late transient", Cfg: fault.Config{Seed: seed + 8, ComputePanicRate: 0.02}, ComputeOnce: true, Protocol: core.ProtocolReservations, Runs: 3},
		// A dependence that lies about its reservation footprint: the
		// compute touches a neighbor slot the footprint never declared.
		// The runtime oracle must catch the undeclared touch before it
		// commits, squash the group, and fall back sequentially — so
		// outputs still match the uninjected baseline exactly.
		{Name: "lying footprint", Cfg: fault.Config{Seed: seed + 7}, Protocol: core.ProtocolReservations, FootprintLie: true, Runs: 3},
	}
}

// ChaosRun executes the chaos campaign and returns per-scenario results.
// Any crash, output divergence or reconciliation failure is reported in
// the result row; injector or infrastructure errors abort the experiment.
func ChaosRun(e *Env) ([]ChaosResult, error) {
	inputs := make([]int, 256)
	for i := range inputs {
		inputs[i] = i + 1
	}
	var out []ChaosResult
	for _, sc := range chaosScenarios(e.Seed) {
		r, err := chaosScenarioRun(sc, inputs)
		if err != nil {
			return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// chaosLieSlots is the slot count of the lying-footprint dependence.
const chaosLieSlots = 4

// chaosLieCompute is the lying-footprint compute with the seeded footprint
// bug: every input updates its own slot, but every seventh input also
// bumps the neighbor slot — a touch the declared footprint omits.
func chaosLieCompute(_ *rng.Source, in int, st []float64) (int, []float64) {
	st[in%chaosLieSlots] += float64(in)
	if in%7 == 3 {
		st[(in+1)%chaosLieSlots]++ // the lie: undeclared neighbor write
	}
	return in*2 + int(st[in%chaosLieSlots]), st
}

// chaosDep builds a scenario's dependence around compute and aux, with its
// initial state: the one-slot prefix sum with no reservation contract (one
// input commits per round under reservations), or for a lying footprint the
// chaosLieSlots-slot dependence whose footprint declares only the input's
// own slot, with the per-slot equality the oracle needs.
func chaosDep(lie bool, compute core.Compute[int, []float64, int], aux core.Aux[int, []float64]) (*core.Dependence[int, []float64, int], []float64) {
	if !lie {
		return core.New(compute, aux, chaosOps()), []float64{0}
	}
	ops, reserve := core.SlotOps(func(in int) []int { return []int{in % chaosLieSlots} },
		nil, func(a, b float64) bool { return a == b })
	return core.New(compute, nil, ops).WithReserve(reserve), make([]float64, chaosLieSlots)
}

// chaosScenarioRun executes one scenario under a live telemetry server and
// checks every run against the scenario's uninjected sequential baseline.
func chaosScenarioRun(sc ChaosScenario, inputs []int) (ChaosResult, error) {
	const workers, groupSize = 4, 8
	base := chaosCompute
	if sc.FootprintLie {
		base = chaosLieCompute
	}
	// The uninjected sequential baseline: the output contract every
	// injected run must reproduce byte for byte.
	baseDep, init := chaosDep(sc.FootprintLie, base, chaosAux)
	baseOuts, baseFinal, _ := baseDep.Run(inputs, init, core.Options{})

	in := fault.New(sc.Cfg)
	ob := obs.NewObserver(workers+1, 1<<14)

	var b *telemetry.Breaker
	if sc.Breaker {
		// Long window and cooldown: once tripped the breaker stays open
		// for the rest of the scenario, so the denial count is exact.
		b = telemetry.NewBreaker(telemetry.BreakerConfig{
			Window: time.Hour, MinRuns: 4, TripRate: 0.5, Cooldown: time.Hour,
		})
	}
	srv := telemetry.NewServer(telemetry.Config{Observer: ob, Breaker: b})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return ChaosResult{}, err
	}
	defer srv.Close()

	// An account the fact table cannot see: an hour-window signals
	// aggregator whose start-to-end deltas must equal the summed Stats.
	sig := telemetry.NewSignals(ob, telemetry.SignalsConfig{Window: time.Hour, Breaker: b})
	sig.Report() // baseline sample before any run

	aux := fault.WrapAux(in, chaosAux, chaosGarbage)
	res := ChaosResult{Name: sc.Name, Runs: sc.Runs, OutputsIdentical: true}
	for run := 0; run < sc.Runs; run++ {
		compute := core.Compute[int, []float64, int](base)
		if sc.ComputeOnce {
			// One fresh wrapper per run: at most one transient compute
			// fault per run, guaranteed to land on a containable lane.
			compute = fault.WrapComputeOnce(in, base, func(i int) uint64 { return uint64(i) })
		} else if sc.Cfg.DelayRate > 0 {
			compute = fault.WrapCompute(in, base)
		}
		opts := core.Options{
			UseAux: true, Protocol: sc.Protocol, FootprintCheck: sc.FootprintLie,
			GroupSize: groupSize, Window: len(inputs),
			RedoMax: 1, Rollback: 4, Workers: workers,
			Seed: sc.Cfg.Seed + uint64(run),
			Obs:  ob, GroupTimeout: sc.GroupTimeout,
		}
		if b != nil {
			opts.Breaker = b
		}
		dep, init := chaosDep(sc.FootprintLie, compute, aux)
		outs, final, st, err := dep.RunChecked(inputs, init, opts)
		if err != nil {
			// The no-crash guarantee failed: a fault escaped containment.
			return res, fmt.Errorf("run %d escaped containment: %w", run, err)
		}
		if !slices.Equal(final, baseFinal) || !slices.Equal(outs, baseOuts) {
			res.OutputsIdentical = false
		}
		res.Add(st)

		// A live scrape between runs: every exposition must parse and
		// satisfy the registry's structural invariants.
		if _, err := scrapeOnce(srv.URL()); err != nil {
			return res, fmt.Errorf("mid-run scrape: %w", err)
		}
		res.MidScrapes++
	}

	res.AuxPanics = in.Fired(fault.SiteAux)
	res.Garbage = in.Fired(fault.SiteGarbage)
	res.ComputePanics = in.Fired(fault.SiteCompute)
	res.Delays = in.Fired(fault.SiteDelay)
	if b != nil {
		res.BreakerTrips = b.Snapshot().Trips
	}
	final, err := scrapeOnce(srv.URL())
	if err != nil {
		return res, fmt.Errorf("final scrape: %w", err)
	}
	res.Reconciled = chaosReconciled(res, ob, b, final, sig.Report())
	return res, nil
}

// chaosReconciled checks every account the campaign kept: the fact table's
// (telemetry.Reconcile over the summed Stats, the observer, its event log
// and the final /metrics exposition), the reservations identity, and the two
// accounts the table cannot see — the signals window's start-to-end deltas
// and the breaker's own breaker_* metrics.
func chaosReconciled(r ChaosResult, ob *obs.Observer, b *telemetry.Breaker, m *telemetry.PromMetrics, rep telemetry.SignalsReport) bool {
	ok := telemetry.Reconcile(r.Stats, ob, m) == nil
	// A run of reservation rounds commits every input exactly one way.
	if r.Rounds > 0 {
		ok = ok && ob.Counts()[obs.EvCommit]+int64(r.ConventionalInputs+r.FallbackInputs) == int64(r.Inputs)
	}
	// The signals window opened before the first run, so its deltas are
	// the whole campaign.
	ok = ok && rep.PanickedGroups == int64(r.PanickedGroups) &&
		rep.TimedOutGroups == int64(r.TimedOutGroups) &&
		rep.Aborts == int64(r.Aborts) &&
		rep.FallbackInputs == int64(r.FallbackInputs) &&
		rep.ConventionalInputs == int64(r.ConventionalInputs) &&
		rep.LaneCPUCommittedNS == r.LaneCPUCommittedNS &&
		rep.LaneCPUWastedNS == r.LaneCPUWastedNS
	if b != nil {
		v := func(name string) int64 {
			f, _ := m.Value(name)
			return int64(f)
		}
		ok = ok && r.BreakerTrips == v("breaker_trips_total") &&
			int64(r.BreakerDenied) == b.Snapshot().Denied &&
			int64(r.BreakerDenied) == v("breaker_denied_runs_total")
	}
	return ok
}

// ChaosTable renders the chaos campaign as an experiment table.
func ChaosTable(e *Env) (*Table, error) {
	res, err := ChaosRun(e)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Chaos — injected faults vs the §3.1 output guarantee",
		Columns: []string{
			"runs", "injected", "panicked", "timed out", "aborts",
			"denied", "trips", "fpviol", "output ok", "reconciled",
		},
	}
	for _, r := range res {
		injected := fmt.Sprintf("%d", r.AuxPanics+r.Garbage+r.ComputePanics+r.Delays)
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.Runs),
			injected,
			fmt.Sprintf("%d", r.PanickedGroups),
			fmt.Sprintf("%d", r.TimedOutGroups),
			fmt.Sprintf("%d", r.Aborts),
			fmt.Sprintf("%d", r.BreakerDenied),
			fmt.Sprintf("%d", r.BreakerTrips),
			fmt.Sprintf("%d", r.FootprintViolations),
			fmt.Sprintf("%v", r.OutputsIdentical),
			fmt.Sprintf("%v", r.Reconciled),
		)
	}
	t.AddNote("each scenario injects seeded faults (aux panics, garbage speculative states, transient compute panics, delays, a lying reservation footprint) into a deterministic dependence and requires: no crash, outputs byte-identical to the uninjected sequential baseline, and failure counters reconciling across engine Stats, the event log, and a live /metrics scrape")
	return t, nil
}
