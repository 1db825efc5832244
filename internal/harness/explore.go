package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The explore experiment is the systematic-testing counterpart of chaos:
// instead of injecting faults under the OS scheduler's one arbitrary
// interleaving, it pins every nondeterministic decision point of the
// engine (group dispatch, aux-vs-compute ordering, validate/squash races,
// reservation rounds) to a seeded controller and sweeps schedules. Every
// row runs its target under N controlled schedules — alternating a seeded
// random walk and PCT-style priority exploration — records each decision
// trace, and checks the run's output contract:
//
//   - workload rows: the result must be identical (Distance == 0) to a
//     controller-free reference run with the same engine seed, because
//     every engine random stream is pre-split in group order and
//     validation outcomes are schedule-independent;
//   - synthetic fault rows: outputs must stay byte-identical to the
//     uninjected sequential baseline (the §3.1 guarantee) while seeded aux
//     panics and garbage speculative states land under every schedule.
//
// A sample of recorded traces is replayed through sched.Replay to verify
// a trace pins its run: the replay must be exact — no divergence, no entry
// left unconsumed — at every width and under both protocols, and a run that
// stalled lost control of its schedule; either fails the campaign. A
// schedule that breaks its output contract is delta-debugged down to a
// minimal failing one and dumped for offline replay.

// ExploreConfig sizes the exploration campaign.
type ExploreConfig struct {
	// SchedulesPerRow is how many controlled schedules each row runs
	// (half random-walk, half PCT). 0 picks 25 (4 in quick mode).
	SchedulesPerRow int
	// ReplayEvery replays every k-th recorded schedule to verify trace
	// fidelity. 0 picks 8.
	ReplayEvery int
	// DumpDir receives minimized failing schedules ("" = testdata/schedules).
	DumpDir string
}

// ExploreRow is one exploration target's outcome.
type ExploreRow struct {
	Name string
	// Schedules is how many controlled schedules ran; Distinct counts
	// distinct decision traces among them (by trace hash).
	Schedules, Distinct int
	// Replays counts trace-replay verifications; ReplayDivergences sums
	// what kept them from exact: fallback decisions, stall force-admissions
	// and recorded entries never consumed. Nonzero fails the campaign.
	Replays, ReplayDivergences int
	// Stalls sums stall force-admissions across the exploration runs
	// (nonzero means a blocking operation is not wrapped for the gate, and
	// fails the campaign).
	Stalls int
	// Failures counts schedules whose run broke the row's output
	// contract; each one is minimized and dumped.
	Failures int
}

type exploreTarget struct {
	name string
	// run executes the target under the controller (nil = reference) and
	// reports whether the output contract held.
	run func(ctl sched.Controller) bool
}

// exploreTargets assembles the row set: the six STATS workloads plus
// synthetic fault-injection mixes. Fault sites are limited to the
// auxiliary-code ones (aux panics, garbage states): they fire per aux call
// ordinal, the gate serializes the lanes' aux calls in schedule order, so
// which group a fault lands on is the schedule's to choose — and the
// output contract must hold wherever it lands.
func exploreTargets(e *Env) []exploreTarget {
	var ts []exploreTarget
	for _, w := range e.Targets() {
		if !w.Desc().SupportsSTATS {
			continue
		}
		w := w
		opts := workload.SpecOptions{
			UseAux: true, GroupSize: 4, Window: 2,
			RedoMax: 2, Rollback: 2, Workers: 2,
		}
		ref, _ := w.RunSTATS(e.Seed, e.RealSize, opts)
		ts = append(ts, exploreTarget{
			name: w.Desc().Name,
			run: func(ctl sched.Controller) bool {
				o := opts
				o.Sched = ctl
				got, _ := w.RunSTATS(e.Seed, e.RealSize, o)
				return got.Distance(ref) == 0
			},
		})

		// The same workload under the reservations protocol: schedules now
		// drive the reserve/check/commit yield points, and the contract is
		// stronger — the output must equal the engine's own sequential run
		// of the same shape (the protocol's by-construction guarantee), not
		// just a controller-free reference.
		resvOpts := workload.SpecOptions{
			UseAux: true, Protocol: core.ProtocolReservations,
			GroupSize: 4, Workers: 2,
		}
		seqOpts := resvOpts
		seqOpts.UseAux = false
		resvRef, _ := w.RunSTATS(e.Seed, e.RealSize, seqOpts)
		ts = append(ts, exploreTarget{
			name: w.Desc().Name + " (resv)",
			run: func(ctl sched.Controller) bool {
				o := resvOpts
				o.Sched = ctl
				got, st := w.RunSTATS(e.Seed, e.RealSize, o)
				return got.Distance(resvRef) == 0 && st.Rounds > 0
			},
		})
	}

	inputs := make([]int, 96)
	for i := range inputs {
		inputs[i] = i + 1
	}
	dep := core.New(chaosCompute, chaosAux, chaosOps())
	baseOuts, baseFinal, _ := dep.Run(inputs, []float64{0}, core.Options{})
	mixes := []struct {
		name string
		cfg  fault.Config
	}{
		{"synthetic aux-panic 10%", fault.Config{Seed: e.Seed + 10, AuxPanicRate: 0.10}},
		{"synthetic garbage 10%", fault.Config{Seed: e.Seed + 11, GarbageRate: 0.10}},
		{"synthetic aux+garbage 20%", fault.Config{Seed: e.Seed + 12, AuxPanicRate: 0.20, GarbageRate: 0.20}},
	}
	for _, mix := range mixes {
		cfg := mix.cfg
		ts = append(ts, exploreTarget{
			name: mix.name,
			run: func(ctl sched.Controller) bool {
				in := fault.New(cfg)
				aux := fault.WrapAux(in, chaosAux, chaosGarbage)
				d := core.New(chaosCompute, aux, chaosOps())
				outs, final, _, err := d.RunChecked(inputs, []float64{0}, core.Options{
					UseAux: true, GroupSize: 8, Window: len(inputs),
					RedoMax: 1, Rollback: 4, Workers: 2,
					Seed: cfg.Seed, Sched: ctl,
				})
				return err == nil && slices.Equal(final, baseFinal) && slices.Equal(outs, baseOuts)
			},
		})
	}

	// Reservation synthetics: schedules sweep the reserve/check/commit
	// yield points, clean and with one transient compute panic landing
	// mid-round (squashing the round into the sequential fallback). Both
	// must stay byte-identical to the uninjected sequential baseline.
	resvRun := func(ctl sched.Controller, in *fault.Injector) bool {
		compute := chaosCompute
		if in != nil {
			compute = fault.WrapComputeOnce(in, chaosCompute,
				func(v int) uint64 { return uint64(v) })
		}
		d := core.New(compute, nil, chaosOps())
		outs, final, st, err := d.RunChecked(inputs, []float64{0}, core.Options{
			UseAux: true, Protocol: core.ProtocolReservations,
			GroupSize: 8, Workers: 2, Seed: e.Seed + 13, Sched: ctl,
		})
		return err == nil && slices.Equal(final, baseFinal) && slices.Equal(outs, baseOuts) && st.Rounds > 0
	}
	ts = append(ts,
		exploreTarget{
			name: "synthetic reservations",
			run:  func(ctl sched.Controller) bool { return resvRun(ctl, nil) },
		},
		exploreTarget{
			name: "synthetic reservations compute-once 30%",
			run: func(ctl sched.Controller) bool {
				return resvRun(ctl, fault.New(fault.Config{
					Seed: e.Seed + 14, ComputePanicRate: 0.30,
				}))
			},
		},
	)
	return ts
}

// ExploreRun executes the exploration campaign over every target.
func ExploreRun(e *Env, cfg ExploreConfig) ([]ExploreRow, error) {
	return exploreRun(e, exploreTargets(e), cfg)
}

// exploreRun explores the given targets (the tier-1 smoke pins a cheap
// subset; `make explore` sweeps them all through ExploreRun).
func exploreRun(e *Env, targets []exploreTarget, cfg ExploreConfig) ([]ExploreRow, error) {
	n := cfg.SchedulesPerRow
	if n <= 0 {
		n = 25
		if len(e.Threads) < 10 { // quick env
			n = 4
		}
	}
	replayEvery := cfg.ReplayEvery
	if replayEvery <= 0 {
		replayEvery = 8
	}
	dumpDir := cfg.DumpDir
	if dumpDir == "" {
		dumpDir = filepath.Join("testdata", "schedules")
	}

	var rows []ExploreRow
	for _, tgt := range targets {
		row := ExploreRow{Name: tgt.name}
		hashes := map[uint64]bool{}
		for i := 0; i < n; i++ {
			ctlSeed := e.Seed ^ uint64(i)*0x9E3779B97F4A7C15
			var ctl *sched.Gate
			if i%2 == 0 {
				ctl = sched.NewRandom(ctlSeed, sched.WithRecording())
			} else {
				ctl = sched.NewPCT(ctlSeed, 3, 512, sched.WithRecording())
			}
			ok := tgt.run(ctl)
			row.Schedules++
			row.Stalls += ctl.Stalls()
			tr := ctl.TraceCopy()
			hashes[tr.Hash()] = true

			if !ok {
				row.Failures++
				if err := dumpMinimized(dumpDir, tgt, tr, i); err != nil {
					return rows, err
				}
				continue
			}
			if i%replayEvery == 0 {
				rep := sched.NewReplay(tr)
				if !tgt.run(rep) {
					// The live run held the contract but its recorded
					// schedule does not reproduce it: a replay failure.
					row.Failures++
					if err := dumpMinimized(dumpDir, tgt, tr, i); err != nil {
						return rows, err
					}
				}
				row.Replays++
				row.ReplayDivergences += rep.Divergences() + rep.Remaining()
			}
		}
		row.Distinct = len(hashes)
		rows = append(rows, row)
	}
	return rows, nil
}

// dumpMinimized delta-debugs a failing schedule down to a 1-minimal trace
// still breaking the contract and writes it for offline replay. ddmin's
// truncated candidates diverge by design — a lane held for an entry the
// shortened run never reaches — so these replays, and only these,
// resynchronize after a short stall.
func dumpMinimized(dir string, tgt exploreTarget, tr *sched.Trace, i int) error {
	min := sched.Minimize(tr, func(c *sched.Trace) bool {
		return !tgt.run(sched.NewReplay(c, sched.WithStallTimeout(100*time.Millisecond)))
	})
	min.Note = fmt.Sprintf("minimized failing schedule: %s (schedule %d)", tgt.name, i)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("explore: dump dir: %w", err)
	}
	name := filepath.Join(dir, fmt.Sprintf("failure-%s-%d.trace", sanitize(tgt.name), i))
	if err := min.WriteFile(name); err != nil {
		return fmt.Errorf("explore: dump %s: %w", name, err)
	}
	return nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// ExploreTable runs the campaign and renders it with the exploration
// counters.
func ExploreTable(e *Env, cfg ExploreConfig) (*Table, error) {
	rows, err := ExploreRun(e, cfg)
	if err != nil {
		return nil, err
	}
	return exploreTable(rows)
}

// exploreTable renders campaign rows; a contract failure, an inexact replay
// or a stalled run on any row is an error.
func exploreTable(rows []ExploreRow) (*Table, error) {
	t := &Table{
		Title: "Explore — systematic schedule exploration under controlled scheduling",
		Columns: []string{
			"schedules", "distinct", "replays", "replay div", "stalls", "failures",
		},
	}
	var schedules, distinct, failures, inexact int
	for _, r := range rows {
		schedules += r.Schedules
		distinct += r.Distinct
		failures += r.Failures
		if r.ReplayDivergences != 0 || r.Stalls != 0 {
			inexact++
		}
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.Schedules),
			fmt.Sprintf("%d", r.Distinct),
			fmt.Sprintf("%d", r.Replays),
			fmt.Sprintf("%d", r.ReplayDivergences),
			fmt.Sprintf("%d", r.Stalls),
			fmt.Sprintf("%d", r.Failures),
		)
	}
	t.AddNote("%d schedules explored (%d distinct interleavings), %d contract failures; every run's nondeterministic decision points were driven by a seeded controller (alternating random walk and PCT), recorded traces sampled for replay fidelity, failures minimized to testdata/schedules/", schedules, distinct, failures)
	if failures != 0 {
		return t, fmt.Errorf("explore: %d schedule(s) broke the output contract (minimized traces dumped)", failures)
	}
	if inexact != 0 {
		return t, fmt.Errorf("explore: %d row(s) lost control of the schedule (an inexact replay or a stalled run; see the replay div and stalls columns)", inexact)
	}
	return t, nil
}
