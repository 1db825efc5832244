package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/stats"
)

// benchCase is one prepared case of a workload: how to call it
// sequentially and speculatively, and what a correct call looks like.
type benchCase struct {
	name   string
	proto  core.Protocol
	expect expectation
	// gen regenerates the case's inputs with the program's exported
	// generator (the programs generate their inputs inside every call).
	gen func()
	// seq is the plain single-threaded baseline; spec the speculative
	// configuration. traced asks spec to report into the workload's
	// tracer: registry cases attach the event source's observer,
	// synthetic cases wrap their closures with the recorder.
	seq  func(seed uint64) call
	spec func(seed uint64, traced bool) call
	rec  *recorder // synthetic cases only
}

// sample is what one repetition measured: wall time summed over the cases
// for each side, and process CPU and allocated bytes around the
// speculative side.
type sample struct {
	seqWall, specWall, specCPU time.Duration
	specAlloc                  uint64
}

// prepared is a workload ready to be measured, with the tallies its
// repetitions add to.
type prepared struct {
	def          workloadDef
	cases        []*benchCase
	inputsPerRep int
	tr           *tracer
	es           *eventSource // the observer traced and observed calls report into
	perRep       func()       // observed: telemetry work timed with the speculative side
	shutdown     func()

	seqCalls, specCalls []call
	attempted, failed   int
	failures            []string   // the first few, for the report
	spec                core.Stats // summed over the speculative calls
	specCallCount       int        // speculative calls summed into spec
	abortedCalls        int
	worstQuality        float64
}

// safeCall runs one program call and turns a panic that escaped the
// engine into the call's error: a failed run, not a dead benchmark.
func safeCall(outLen func(workload.Result) int, f func() (workload.Result, core.Stats)) (c call) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("%v", r)
		}
	}()
	c.res, c.st = f()
	c.outLen = outLen(c.res)
	return c
}

// prepare sets a workload up: resolves its programs, computes each
// auxiliary-protocol case's oracle and variability band (five original
// runs), takes the sequential baseline's shape, starts the shared Runtime
// or the observer, and runs the warm-up repetitions. All of it is charged
// to setup_s.
func prepare(def workloadDef, seed uint64, tr *tracer) (*prepared, error) {
	p := &prepared{def: def, tr: tr, shutdown: func() {}}
	if def.synthGroups != nil {
		p.prepareSynth(seed)
	} else if err := p.prepareRegistry(seed); err != nil {
		return nil, err
	}
	p.seqCalls = make([]call, len(p.cases))
	p.specCalls = make([]call, len(p.cases))
	for _, c := range p.cases {
		p.inputsPerRep += c.expect.inputs
	}
	for i := 0; i < def.warmup; i++ {
		p.rep(seed+uint64(i), i%2 == 0, false)
	}
	return p, nil
}

func (p *prepared) prepareRegistry(seed uint64) error {
	workers := engineWorkers()
	// 1<<14 events per lane holds the largest call benchmarked (about
	// 3000 events on the coordinator lane) several times over.
	p.es = newEventSource(p.tr, obs.NewObserver(workers+1, 1<<14))
	if p.def.observed {
		folder := telemetry.NewSpanFolder(p.es.ob.Tracer)
		signals := telemetry.NewSignals(p.es.ob, telemetry.SignalsConfig{})
		p.perRep = func() {
			folder.Poll()
			signals.Report()
			_ = p.es.ob.Reg.WriteText(io.Discard) // io.Discard cannot fail
		}
	}
	for _, cd := range p.def.cases {
		w, prog, err := cd.lookup()
		if err != nil {
			return err
		}
		cd := cd
		c := &benchCase{
			name:  fmt.Sprintf("%s/%d/%s", cd.program, cd.size, cd.opts.Protocol),
			proto: cd.opts.Protocol,
			gen:   func() { prog.gen(cd.size) },
		}
		seqOpts := workload.SpecOptions{Protocol: cd.opts.Protocol}
		c.seq = func(seed uint64) call {
			return safeCall(prog.outLen, func() (workload.Result, core.Stats) { return w.RunSTATS(seed, cd.size, seqOpts) })
		}
		c.spec = func(seed uint64, traced bool) call {
			o := cd.opts
			if traced || p.def.observed {
				o.Obs = p.es.ob
			}
			return safeCall(prog.outLen, func() (workload.Result, core.Stats) { return w.RunSTATS(seed, cd.size, o) })
		}
		base := c.seq(seed)
		if base.err != nil {
			return fmt.Errorf("%s: sequential baseline: %w", c.name, base.err)
		}
		// A sequential engine run forms one group, so Groups counts the
		// engine runs behind one call.
		c.expect = expectation{outLen: base.outLen, inputs: base.st.Inputs, engines: base.st.Groups}
		if cd.opts.Protocol == core.ProtocolReservations {
			c.expect.exact = true
		} else {
			c.expect.oracle = w.RunOracle(cd.size)
			for s := uint64(0); s < 5; s++ {
				c.expect.band = max(c.expect.band, distance(w.RunOriginal(s, cd.size), c.expect.oracle))
			}
		}
		p.cases = append(p.cases, c)
	}
	return nil
}

func (p *prepared) prepareSynth(seed uint64) {
	sy := newSynth(seed, synthInputs)
	rt := stats.NewRuntime(1)
	p.shutdown = rt.Close
	p.es = newEventSource(p.tr, rt.Observer())
	want := sy.want()
	rec := newRecorder(p.tr)
	for _, g := range p.def.synthGroups {
		g := g
		run := func(useAux, traced bool, seed uint64) call {
			compute, aux, clone, match := sy.compute, sy.aux, sy.clone, sy.match
			if traced {
				compute, aux, clone, match = rec.traced(sy)
			}
			return safeCall(func(r workload.Result) int { return len(r.(synthResult)) }, func() (workload.Result, core.Stats) {
				sd := stats.NewStateDependence(sy.inputs, uint64(0), compute)
				sd.SetAuxiliary(aux).SetStateOps(clone, match)
				sd.Configure(stats.Options{UseAux: useAux, GroupSize: g, Window: 1, RedoMax: 2, Rollback: 2, Workers: 1, Seed: seed})
				outs, _, st := stats.Attach(rt, sd).Run()
				return synthResult(outs), st
			})
		}
		p.cases = append(p.cases, &benchCase{
			name:   fmt.Sprintf("synthetic/%d/G%d", synthInputs, g),
			expect: expectation{outLen: synthInputs, inputs: synthInputs, engines: 1, oracle: want},
			gen:    func() { newSynth(seed, synthInputs) },
			seq:    func(seed uint64) call { return run(false, false, seed) },
			spec:   func(seed uint64, traced bool) call { return run(true, traced, seed) },
			rec:    rec,
		})
	}
}

// rep is one repetition: every case once on each side with the same run
// seed, the speculative side first when specFirst. Outputs are checked
// after both sides ran, outside every timed region.
func (p *prepared) rep(seed uint64, specFirst, traced bool) sample {
	var s sample
	seqSide := func() {
		for i, c := range p.cases {
			t0 := time.Now()
			p.seqCalls[i] = c.seq(seed)
			s.seqWall += time.Since(t0)
		}
	}
	specSide := func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu := processCPU()
		for i, c := range p.cases {
			if traced {
				p.es.drain()
			}
			t0 := time.Now()
			p.specCalls[i] = c.spec(seed, traced)
			d := time.Since(t0)
			s.specWall += d
			if traced {
				lo := int64(t0.Sub(p.tr.epoch))
				events := p.es.poll(p.tr)
				if c.rec != nil {
					p.tr.foldSynth(c.name, c.expect.inputs, lo, lo+int64(d), c.rec)
				} else {
					p.tr.foldCall(c.name, c.proto, c.expect.inputs, lo, lo+int64(d), events)
				}
			}
		}
		if p.perRep != nil {
			t0 := time.Now()
			p.perRep()
			s.specWall += time.Since(t0)
		}
		s.specCPU = processCPU() - cpu
		runtime.ReadMemStats(&after)
		s.specAlloc = after.TotalAlloc - before.TotalAlloc
	}
	if specFirst {
		specSide()
		seqSide()
	} else {
		seqSide()
		specSide()
	}
	for i, c := range p.cases {
		seq, spec := p.seqCalls[i], p.specCalls[i]
		why, _ := c.expect.check(seq, nil)
		p.tally(c, "sequential", seed, why)
		why, quality := c.expect.check(spec, &seq)
		p.tally(c, "speculative", seed, why)
		p.worstQuality = max(p.worstQuality, quality)
		addStats(&p.spec, spec.st)
		p.specCallCount++
		if spec.st.Aborts > 0 {
			p.abortedCalls++
		}
	}
	return s
}

// tally counts one checked call.
func (p *prepared) tally(c *benchCase, side string, seed uint64, why string) {
	p.attempted++
	if why == "" {
		return
	}
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf("%s %s seed %d: %s", c.name, side, seed, why))
	}
}

// addStats sums the counters the per-layer metrics read.
func addStats(sum *core.Stats, st core.Stats) {
	sum.Inputs += st.Inputs
	sum.Matches += st.Matches
	sum.Redos += st.Redos
	sum.FingerprintHits += st.FingerprintHits
	sum.FingerprintMisses += st.FingerprintMisses
	sum.Aborts += st.Aborts
	sum.SpeculativeCommits += st.SpeculativeCommits
	sum.SquashedInputs += st.SquashedInputs
	sum.FallbackInputs += st.FallbackInputs
	sum.Invocations += st.Invocations
	sum.UsefulInvocations += st.UsefulInvocations
	sum.Rounds += st.Rounds
	sum.ReservationConflicts += st.ReservationConflicts
	sum.LaneCPUCommittedNS += st.LaneCPUCommittedNS
	sum.LaneCPUWastedNS += st.LaneCPUWastedNS
	sum.Steals += st.Steals
	sum.LocalHits += st.LocalHits
	sum.QueueDepthPeak = max(sum.QueueDepthPeak, st.QueueDepthPeak)
}

// measure runs repetitions for the given time, or exactly reps of them
// when reps > 0. Run seeds continue where the warm-up stopped. With
// tracing, repetitions alternate untraced and traced, so both halves see
// the same host conditions and their difference is the tracing overhead.
func (p *prepared) measure(seed uint64, d time.Duration, reps int, tracing bool) (plain, traced []sample) {
	stride := 1
	if tracing {
		stride = 2
	}
	deadline := time.Now().Add(d)
	for k := 0; ; k++ {
		pair := k / stride
		if k%stride == 0 {
			if reps > 0 && pair >= reps {
				break
			}
			if reps == 0 && pair >= 2 && time.Now().After(deadline) {
				break
			}
		}
		s := p.rep(seed+uint64(p.def.warmup+pair), pair%2 == 0, k%stride == 1)
		if k%stride == 1 {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	return plain, traced
}

// column extracts one field of the samples as float64 seconds or bytes.
func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func seqWall(s sample) float64   { return s.seqWall.Seconds() }
func specWall(s sample) float64  { return s.specWall.Seconds() }
func specCPU(s sample) float64   { return s.specCPU.Seconds() }
func specAlloc(s sample) float64 { return float64(s.specAlloc) }

// endToEndMetrics fills the gated metrics from the untraced samples. The
// timings are best-decile estimates (see bestDecile); settled reports
// whether every one of them had the samples the estimator asks for.
func (p *prepared) endToEndMetrics(m map[string]float64, samples []sample, setups []float64) (settled bool) {
	n := float64(p.inputsPerRep)
	spec, ok1 := bestDecile(column(samples, specWall))
	seq, ok2 := bestDecile(column(samples, seqWall))
	cpu, ok3 := bestDecile(column(samples, specCPU))
	m["setup_s"] = mathx.Median(setups)
	m["inputs_per_s"] = n / spec
	m["seq_inputs_per_s"] = n / seq
	m["speedup_vs_seq"] = seq / spec
	m["cpu_ms_per_kinput"] = cpu * 1e3 / (n / 1e3)
	m["alloc_bytes_per_input"] = mathx.Median(column(samples, specAlloc)) / n
	return ok1 && ok2 && ok3
}

// harnessMetrics fills the diagnostics that describe the measurement
// itself, from the speculative wall time per repetition.
func harnessMetrics(m map[string]float64, samples []sample) {
	wall := column(samples, specWall)
	m["harness.run_ms_p50"] = mathx.Median(wall) * 1e3
	p90, _ := highTail(wall)
	m["harness.run_ms_p90"] = p90 * 1e3
	m["harness.rep_iqr_frac"] = iqrFrac(wall)
	m["harness.reps"] = float64(len(samples))
	m["harness.converged"] = 0
	// The paper's §4.1 rule: 95% of the measurements within 5% of the mean.
	if mathx.WithinFraction(wall, 0.95, 0.05) {
		m["harness.converged"] = 1
	}
}

// countMetrics fills the per-layer metrics that are ratios of the engine's
// own counters, summed over every speculative call of the run.
func (p *prepared) countMetrics(m map[string]float64) {
	st := p.spec
	in := float64(st.Inputs)
	boundaries := float64(st.Matches + st.Aborts)
	m["workload.invocations_per_input"] = ratio(float64(st.Invocations), in)
	m["workload.useful_frac"] = ratio(float64(st.UsefulInvocations), float64(st.Invocations))
	m["workload.quality_ratio"] = p.worstQuality
	m["core.match_frac"] = ratio(float64(st.Matches), boundaries)
	m["core.redos_per_boundary"] = ratio(float64(st.Redos), boundaries)
	m["core.abort_run_frac"] = ratio(float64(p.abortedCalls), float64(p.specCallCount))
	m["core.fallback_frac"] = ratio(float64(st.FallbackInputs), in)
	m["core.squashed_frac"] = ratio(float64(st.SquashedInputs), in)
	m["core.spec_commit_frac"] = ratio(float64(st.SpeculativeCommits), in)
	m["core.fingerprint_miss_frac"] = ratio(float64(st.FingerprintMisses), float64(st.FingerprintHits+st.FingerprintMisses))
	m["core.lane_cpu_wasted_frac"] = ratio(float64(st.LaneCPUWastedNS), float64(st.LaneCPUWastedNS+st.LaneCPUCommittedNS))
	// Under reservations every input commits exactly once and conflicts
	// once per round it lost, so reserve attempts = inputs + conflicts.
	// Without rounds (auxiliary protocol) all three read 0.
	conflicts := float64(st.ReservationConflicts)
	m["core.resv.rounds_per_input"] = ratio(float64(st.Rounds), in)
	m["core.resv.commits_per_round"] = ratio(in, float64(st.Rounds))
	m["core.resv.conflict_frac"] = ratio(conflicts, in+conflicts)
	m["pool.steal_frac"] = ratio(float64(st.Steals), float64(st.Steals+st.LocalHits))
	m["pool.queue_depth_peak"] = float64(st.QueueDepthPeak)
}
