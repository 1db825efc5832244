package main

import (
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/stats"
)

// Sinks keep the compiler from deleting the calls a probe times.
var (
	sinkSource *rng.Source
	sinkFloat  float64
	sinkWord   uint64
	sinkBool   bool
)

// prober times single layers through their public functions. Each probe
// repeats a small batch until its share of the budget is spent, at least
// minBatches times, and reports the median batch: the probes run in every
// traced invocation and must not starve the workload's own repetitions.
type prober struct {
	perProbe time.Duration
}

const minBatches = 5

// repeat calls fn until the probe's budget is spent.
func (pr prober) repeat(fn func()) {
	deadline := time.Now().Add(pr.perProbe)
	for n := 0; n < minBatches || (n < 2000 && time.Now().Before(deadline)); n++ {
		fn()
	}
}

// median repeats batch and returns the median of its results.
func (pr prober) median(batch func() float64) float64 {
	var got []float64
	pr.repeat(func() { got = append(got, batch()) })
	return mathx.Median(got)
}

// perCall is the median nanoseconds per call of fn, timed n calls at a
// time.
func (pr prober) perCall(n int, fn func()) float64 {
	return pr.median(func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return float64(time.Since(t0)) / float64(n)
	})
}

// mallocsPer is the heap objects allocated per call of fn.
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// calibrate times a fixed loop over a 4 KiB array, in milliseconds. It
// needs nothing but one core and its L1 cache, so a value above the
// host's usual one means the host was disturbed, not the program.
func calibrate() float64 {
	var a [512]uint64
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[i&511] += x
	}
	sinkWord = a[x&511]
	return float64(time.Since(t0)) / 1e6
}

// layerProbes fills the per-layer metrics that are direct timings of a
// layer's public functions, on fixed inputs that do not depend on the
// workload being run.
func layerProbes(m map[string]float64, pr prober, seed uint64) {
	workers := engineWorkers()

	// pool: what every RunSTATS pays for its private pool, the fan-out of
	// one batch of groups, the submit call alone, and how long an idle
	// worker takes to start a submitted task.
	m["pool.lifecycle_us"] = pr.perCall(10, func() { pool.New(workers).Close() }) / 1e3
	p := pool.New(workers)
	var wg sync.WaitGroup
	batch := make([]pool.Task, 32)
	for i := range batch {
		batch[i] = wg.Done
	}
	m["pool.batch_fanout_us"] = pr.perCall(20, func() {
		wg.Add(len(batch))
		_, _ = p.SubmitBatch(batch) // the pool is open: nothing is refused
		wg.Wait()
	}) / 1e3
	m["pool.submit_ns"] = pr.median(func() float64 {
		wg.Add(len(batch))
		t0 := time.Now()
		for _, t := range batch {
			_ = p.Submit(t) // as above
		}
		d := time.Since(t0)
		wg.Wait()
		return float64(d) / float64(len(batch))
	})
	var wake []float64
	pr.repeat(func() {
		var started time.Time
		wg.Add(1)
		t0 := time.Now()
		_ = p.Submit(func() { started = time.Now(); wg.Done() })
		wg.Wait()
		wake = append(wake, float64(started.Sub(t0))/1e3)
	})
	m["pool.submit_to_start_us_p50"] = mathx.Median(wake)
	m["pool.submit_to_start_us_p99"], _ = highTail(wake)
	p.Close()

	// rng: the per-invocation stream split (allocating and in place) and
	// the Gaussian draw the workloads' kernels are made of.
	src := rng.New(seed)
	var child rng.Source
	m["rng.split_ns"] = pr.perCall(1000, func() { sinkSource = src.Split() })
	m["rng.split_into_ns"] = pr.perCall(1000, func() { src.SplitInto(&child) })
	m["rng.norm_ns"] = pr.perCall(1000, func() { sinkFloat = src.Norm() })

	// obs: one event on the disabled (nil tracer) and enabled paths, and
	// the two read paths a scrape uses.
	var off *obs.Tracer
	ob := obs.NewObserver(workers+1, 0)
	m["obs.emit_disabled_ns"] = pr.perCall(1000, func() { off.Emit(0, obs.EvGroupStart, 0, 0) })
	m["obs.emit_enabled_ns"] = pr.perCall(1000, func() { ob.Tracer.Emit(0, obs.EvGroupStart, 0, 0) })
	m["obs.snapshot_us"] = pr.perCall(2, func() { ob.Tracer.Snapshot() }) / 1e3
	m["obs.metrics_text_us"] = pr.perCall(5, func() { _ = ob.Reg.WriteText(io.Discard) }) / 1e3

	// core: the synthetic dependence straight on the engine, on a shared
	// one-worker pool with an observer attached — the arrangement the
	// facade runs it in, minus the facade.
	sy := newSynth(seed, synthInputs)
	shared := pool.New(1)
	shared.SetObserver(ob)
	ops := core.StateOps[uint64]{Clone: sy.clone, MatchAny: sy.match}
	opts := core.Options{UseAux: true, GroupSize: 16, Window: 1, RedoMax: 2, Rollback: 2, Workers: 1, Seed: seed, Pool: shared, Obs: ob}
	dep := core.New(sy.compute, sy.aux, ops)
	warm := func() { dep.Run(sy.inputs, 0, opts) }
	cold := func() { core.New(sy.compute, sy.aux, ops).Run(sy.inputs, 0, opts) }
	warmNS := pr.perCall(5, warm)
	_, _, warmStats := dep.Run(sy.inputs, 0, opts)
	m["core.run_warm_us"] = warmNS / 1e3
	m["core.run_cold_us"] = pr.perCall(5, cold) / 1e3
	m["core.run_warm_allocs"] = mallocsPer(10, warm)
	m["core.run_cold_allocs"] = mallocsPer(10, cold)
	// Without a slot decomposition the whole state is one slot and every
	// round commits one input: 512 inputs are 512 reserve/check/commit
	// rounds, the protocol's fixed cost with nothing else in it.
	resv := opts
	resv.Protocol = core.ProtocolReservations
	warmResv := func() { dep.Run(sy.inputs[:512], 0, resv) }
	m["core.resv.run_warm_us"] = pr.perCall(2, warmResv) / 1e3
	m["core.resv.run_warm_allocs"] = mallocsPer(5, warmResv)

	// telemetry: fold one engine run's worth of events, incrementally and
	// from scratch, and produce one signals report.
	var cur obs.Cursor
	ob.Tracer.Poll(&cur, nil)
	warm()
	events, _ := ob.Tracer.Poll(&cur, nil)
	folder := telemetry.NewSpanFolder(ob.Tracer)
	folder.Poll()
	m["telemetry.folder_poll_us"] = pr.median(func() float64 {
		for _, e := range events {
			ob.Tracer.Emit(int(e.Lane), e.Kind, e.Group, e.Arg)
		}
		t0 := time.Now()
		folder.Poll()
		return float64(time.Since(t0))
	}) / 1e3
	m["telemetry.build_spans_us"] = pr.perCall(2, func() { telemetry.BuildSpans(events) }) / 1e3
	signals := telemetry.NewSignals(ob, telemetry.SignalsConfig{})
	m["telemetry.signals_report_us"] = pr.perCall(5, func() { signals.Report() }) / 1e3
	shared.Close()

	// stats: the facade on a shared Runtime against the warm engine run of
	// the same shape, and what starting (and stopping) a Runtime costs.
	rt := stats.NewRuntime(1)
	facadeNS := pr.perCall(5, func() {
		sd := stats.NewStateDependence(sy.inputs, uint64(0), sy.compute)
		sd.SetAuxiliary(sy.aux).SetStateOps(sy.clone, sy.match)
		sd.Configure(stats.Options{UseAux: true, GroupSize: 16, Window: 1, RedoMax: 2, Rollback: 2, Workers: 1, Seed: seed})
		stats.Attach(rt, sd).Run()
	})
	rt.Close()
	m["stats.facade_us_per_run"] = (facadeNS - warmNS) / 1e3
	m["stats.runtime_start_us"] = pr.perCall(5, func() { stats.NewRuntime(workers).Close() }) / 1e3

	// The ledger must add up: the warm engine run above, predicted from
	// unit costs times the counts in its Stats.
	recent := sy.inputs[14:16]
	originals := []uint64{sy.prefix(15)}
	computeNS := pr.perCall(1000, func() { sinkWord, _ = sy.compute(nil, 1, sinkWord) })
	auxNS := pr.perCall(1000, func() { sinkWord = sy.aux(nil, 0, recent) })
	cloneNS := pr.perCall(1000, func() { sinkWord = sy.clone(sinkWord) })
	matchNS := pr.perCall(1000, func() { sinkBool = sy.match(sinkWord, originals) })
	perGroup := m["pool.batch_fanout_us"]*1e3/float64(len(batch)) + auxNS + cloneNS + matchNS
	perInput := m["rng.split_into_ns"] + computeNS
	predicted := float64(warmStats.Groups)*perGroup + float64(warmStats.Inputs)*perInput
	m["harness.reconcile_err_frac"] = math.Abs(predicted-warmNS) / warmNS
}
