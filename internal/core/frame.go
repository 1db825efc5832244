package core

import (
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sched"
)

// runFrame is the part of a speculative run that does not depend on how a
// group speculates: the grouping geometry, the worker-pool lease, the
// controlled scheduler's bracketing around real waits, the run's clock, and
// the note* methods — the one place each run-level fact that owns a Stats
// field (match, redo, abort, squash, fallback, contained panic, deadline,
// lane CPU, conventional inputs, speculative commits) is
// recorded, the Stats write and the observer's Note (counter + event) on
// adjacent lines so the accounts cannot drift. Facts without a Stats field
// are reported with a bare o.Note at their decision point; a fact whose
// instant a lane has already read off the run's clock goes through NoteAt
// with that reading, so an event's stamp and the nanoseconds its account
// files are the same numbers. Both protocols embed it by
// value in their recycled scratch (it is not generic and is never
// allocated per run) and keep only their policy: core.go guesses start
// states and resolves boundaries, reservations.go runs reserve/check/commit
// rounds. Every field is set on the coordinator before the fan-out and is
// read-only afterwards, so lanes may call yield, now and expired
// concurrently; the note* methods write Stats and are called by one
// goroutine at a time (the coordinator, or under the aux protocol the lane
// holding the resolver role).
type runFrame struct {
	st  *Stats
	o   *obs.Observer
	ctl sched.Controller
	// lane is the coordinator's schedule lane; group (or wave chunk) c
	// yields on lane+1+c.
	lane int

	n, g, numGroups int
	timeout         time.Duration
	// lanes is the run's width, the one definition for both protocols:
	// Options.Workers when positive, else the given pool's width plus the
	// lanes the calling goroutine adds to it — one under the aux protocol,
	// whose caller is lane 0, none under reservations, whose coordinator takes
	// no chunk of a fanned-out wave — else 1.
	lanes int

	p *pool.Pool
}

// begin binds the frame to one run of n inputs in groups of g, on lanes of
// which the calling goroutine is caller (1 or 0), and records the group count.
func (f *runFrame) begin(n, g, caller int, opts *Options, st *Stats) {
	*f = runFrame{
		st: st, o: opts.Obs, ctl: opts.Sched, lane: opts.SchedLane,
		n: n, g: g, numGroups: (n + g - 1) / g, timeout: opts.GroupTimeout, lanes: 1,
	}
	if opts.Workers > 0 {
		f.lanes = opts.Workers
	} else if opts.Pool != nil {
		f.lanes = opts.Pool.Workers() + caller
	}
	st.Groups = f.numGroups
}

// bounds returns group j's input index range [start, end).
func (f *runFrame) bounds(j int) (start, end int) {
	return j * f.g, min(f.n, (j+1)*f.g)
}

// lease takes the run's worker pool: Options.Pool when given, else the
// process pool (pool.Process) widened to width, the run's lanes less the
// caller's — and none at all for a width of 0: a one-lane aux run touches no
// goroutine but its caller's. The pool is no part of the controlled
// schedule: which worker runs a task decides nothing a run can observe.
func (f *runFrame) lease(opts *Options, width int) {
	f.p = opts.Pool
	if f.p == nil && width > 0 {
		f.p = pool.Process(width)
	}
}

// blocked runs wait — a real synchronization (latch, barrier, saturated
// submit) — with the coordinator out of the controlled schedule: it must
// release its schedule token or neither side can advance.
func (f *runFrame) blocked(wait func()) {
	if f.ctl != nil {
		f.ctl.Block(f.lane)
	}
	wait()
	if f.ctl != nil {
		f.ctl.Unblock(f.lane)
	}
}

// yield parks lane at a decision point of the controlled scheduler; a nil
// controller costs one branch.
func (f *runFrame) yield(p sched.Point, lane int) {
	if f.ctl != nil {
		f.ctl.Yield(p, lane)
	}
}

// now reads the run's clock — the trace clock, one monotonic read, so a
// lane's reading stamps the events of its instant as it is (NoteAt). It is
// the package's one clock; scripts/fact_guard.sh keeps it so.
func (f *runFrame) now() int64 {
	return obs.Now()
}

// stamp is now for a reading only observation uses: an unobserved run skips
// the clock and gets 0, which no event or histogram sees and which a lane
// takes for no reading (runLane).
func (f *runFrame) stamp() int64 {
	if f.o == nil {
		return 0
	}
	return f.now()
}

// fanOut submits the tasks in one batch operation — the package's one submit
// site (scripts/fact_guard.sh) — and none for an empty batch, which is all a
// run without a pool has. done counts the tasks out: each is marked done once
// it finished and, on the pool, once its finish was accounted, so a run that
// waits on done has every event of its tasks. The tasks are the run's: their
// dispatch events and the queue depths they meet go to the run's observer,
// the tasks the pool accepted are its pool dispatches (Stats.LocalHits) and
// the deepest queue they met is its QueueDepthPeak, so runs sharing a pool
// each count only their own. A closed pool leaves a suffix unqueued, which
// runs inline on the coordinator. Both can block for real (saturated pool;
// inline tasks yield on their own lanes), so callers wrap it in blocked.
func (f *runFrame) fanOut(tasks []pool.Task, done *sync.WaitGroup) {
	if len(tasks) == 0 {
		return
	}
	done.Add(len(tasks))
	nq, peak, err := f.p.Dispatch(f.o, done, tasks)
	f.st.LocalHits += int64(nq)
	f.st.QueueDepthPeak = max(f.st.QueueDepthPeak, peak)
	if err != nil {
		for _, task := range tasks[nq:] {
			task()
			done.Done()
		}
	}
}

// expired reports whether a group whose lane read started off the run's
// clock when it began has exceeded the run's GroupTimeout, and by how much.
// Under a controller the expiry is a schedulable choice on lane instead of a
// clock read: serialized lanes spend most of their wall-clock time parked.
func (f *runFrame) expired(started int64, lane int) (bool, int64) {
	if f.ctl != nil {
		return f.ctl.Choose(sched.PointTimeoutCheck, lane, 2) == 1, 0
	}
	if elapsed := f.now() - started; elapsed > int64(f.timeout) {
		return true, elapsed
	}
	return false, 0
}

// contain runs fn — user code, or engine code calling it — and converts a
// panic into a *PanicError carrying the original value and the stack
// captured while the panic was still unwinding. It is the engine's only
// recover.
func contain(fn func()) (pe *PanicError) {
	defer func() {
		if rec := recover(); rec != nil {
			pe = &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// notePanic records group j squashed by a contained user-code panic; pe,
// when non-nil, rides out of the run in Stats.Panics.
func (f *runFrame) notePanic(j int, arg int64, pe *PanicError) {
	f.st.PanickedGroups++
	if pe != nil {
		f.st.Panics = append(f.st.Panics, pe)
	}
	f.o.Note(obs.LaneCoord, obs.EvPanic, int32(j), arg)
}

// noteTimeout records group j squashed by its deadline.
func (f *runFrame) noteTimeout(j int, elapsedNS int64) {
	f.st.TimedOutGroups++
	f.o.Note(obs.LaneCoord, obs.EvGroupTimeout, int32(j), elapsedNS)
}

// noteMatch records boundary j accepted after redosUsed re-executions, at
// the resolver's reading now.
func (f *runFrame) noteMatch(j, redosUsed int, now int64) {
	f.st.Matches++
	f.o.NoteAt(obs.LaneCoord, now, obs.EvValidateMatch, int32(j), int64(redosUsed))
}

// noteRedo records boundary j's attempt-th re-execution where it is
// attempted, so one that panics is still counted.
func (f *runFrame) noteRedo(j, attempt int) {
	f.st.Redos++
	f.o.Note(obs.LaneCoord, obs.EvRedo, int32(j), int64(attempt))
}

// noteAbort records that speculation ended at group j, at the reading now.
func (f *runFrame) noteAbort(j, redosUsed int, now int64) {
	f.st.Aborts++
	f.o.NoteAt(obs.LaneCoord, now, obs.EvAbort, int32(j), int64(redosUsed))
}

// noteSquash records the squash an abort at group j causes: group j loses
// its first uncommitted inputs, every later group its whole width.
func (f *runFrame) noteSquash(j, first int) {
	_, end := f.bounds(j)
	f.st.SquashedInputs = first + f.n - end
	for k, width := j, first; k < f.numGroups; k++ {
		if k > j {
			start, end := f.bounds(k)
			width = end - start
		}
		f.o.Note(obs.LaneCoord, obs.EvSquash, int32(k), int64(width))
	}
}

// noteFallback records that inputs inputs are reprocessed sequentially
// after the abort at group j, and yields at the fallback's entry.
func (f *runFrame) noteFallback(j, inputs int) {
	f.st.FallbackInputs = inputs
	f.o.Note(obs.LaneCoord, obs.EvFallback, int32(j), int64(inputs))
	f.yield(sched.PointFallback, f.lane)
}

// noteLaneCPU files group j's resolved lane time, at the reading now:
// nanoseconds whose results were committed and nanoseconds of discarded
// work.
func (f *runFrame) noteLaneCPU(j int, committed, wasted, now int64) {
	if committed > 0 {
		f.st.LaneCPUCommittedNS += committed
		f.o.NoteAt(obs.LaneCoord, now, obs.EvLaneCPUCommitted, int32(j), committed)
	}
	if wasted > 0 {
		f.st.LaneCPUWastedNS += wasted
		f.o.NoteAt(obs.LaneCoord, now, obs.EvLaneCPUWasted, int32(j), wasted)
	}
}

// noteConventional records group j's inputs committed by a conventional
// streak, at the reading now that completed the streak.
func (f *runFrame) noteConventional(j, inputs int, now int64) {
	f.st.ConventionalInputs += inputs
	f.o.NoteAt(obs.LaneCoord, now, obs.EvConventional, int32(j), int64(inputs))
}

// noteSpecCommits records inputs committed from a speculative execution;
// the counter has no event.
func (f *runFrame) noteSpecCommits(inputs int) {
	f.st.SpeculativeCommits += inputs
	f.o.NoteSpecCommits(inputs)
}
