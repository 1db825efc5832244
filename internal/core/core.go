// Package core implements the paper's primary contribution: the STATS
// execution model of §3.1, which satisfies state dependences with
// compiler-generated auxiliary code and validates the speculation at run
// time.
//
// A state dependence is the code pattern of Figure 4: invocation i computes
// an output from an input while reading and updating a state S, so
// invocation i+1 depends on invocation i's state write, serializing the
// chain. The engine breaks the chain by grouping inputs into ordered blocks
// and overlapping the blocks' computations; each block after the first
// starts from a speculative state produced by auxiliary code from only a few
// recent inputs. When the preceding block finishes, its final state is
// compared with the speculative state (the developer's
// doesSpecStateMatchAny); on mismatch the preceding block may re-execute its
// last few inputs — fresh nondeterminism can produce a different, matching
// final state — up to a budget. If the budget is exhausted, all subsequent
// blocks are aborted and squashed, execution resumes sequentially from the
// first original final state, and no further speculation is performed for
// the current input vector.
//
// A run executes its groups on lanes, Options.Workers of them, and the calling
// goroutine is the first: it hands the worker pool one task per further lane
// — never one per group — and then runs the same loop they do, claiming
// groups in index order, executing them and resolving the boundaries between
// them, until none is left. A one-lane run therefore involves no pool and no
// goroutine but its caller's.
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Compute is the target of a state dependence (computeOutput in Figure 8):
// given an input and the current state, it produces an output and the next
// state. The state it is handed belongs to the call: it may update s in place
// and return it, as the paper's programs do, and must not retain it; the state
// it returns belongs to the engine. The rng.Source carries the invocation's
// nondeterminism; re-executions receive fresh sources, which is what gives
// the runtime multiple original states to match against.
type Compute[I, S, O any] func(r *rng.Source, in I, s S) (O, S)

// Aux is auxiliary code for a state dependence: an alternative producer that
// builds a speculative state from the initial state and the window of inputs
// immediately preceding the block it feeds. init is a private copy — build on
// it, or ignore it — and the returned state becomes the engine's, which may
// run the group on it in place: do not return or retain a state anything else
// can reach. A nil Aux means the dependence has no auxiliary code and must be
// satisfied conventionally.
type Aux[I, S any] func(r *rng.Source, init S, recent []I) S

// StateOps supplies the developer-provided state methods of the SDI
// (Figure 9): Clone corresponds to operator= (state privatization), and
// MatchAny to doesSpecStateMatchAny (speculative-state acceptance against a
// set of original states).
//
// The engine alone copies states, at the hand-offs where a second reader
// exists (DESIGN.md, "Who copies a state, and when"), and every copy is a
// Clone. Clone must be deep enough that updating the copy in place never
// writes the source: computes update the state they are handed, so a shallow
// Clone is a cross-lane data race, not a slow path. It must be safe to call
// concurrently on the same source and must not write it: under both protocols
// the lanes clone the run's initial state at once (each aux group for its
// auxiliary code, each reservation winner for its private workspace).
//
// MatchAny must not retain the originals slice: the engine recycles its
// backing storage across boundaries and runs.
//
// Fingerprint, when non-nil alongside MatchAny, is a cheap acceptance
// prefilter: the engine hashes the speculative state and every original
// once and calls MatchAny only when some original's fingerprint equals the
// speculative state's. The contract is one-sided: Fingerprint(a) ==
// Fingerprint(b) must hold whenever MatchAny would accept a against {b} —
// hash only what acceptance can never distinguish (structure, counts,
// quantized values outside the tolerance). Collisions fall through to the
// deep compare, so a wrong fingerprint costs redos and aborts (time),
// never correctness. Ignored when MatchAny is nil (acceptance by
// construction needs no prefilter).
type StateOps[S any] struct {
	Clone       func(S) S
	MatchAny    func(spec S, originals []S) bool
	Fingerprint func(S) uint64
}

// Admission decides, between runs, whether a run may speculate at all — the
// policy above the engine (§3.5's tuner decides per dependence whether
// auxiliary code is used; this is its online counterpart), while §4.6's
// squash-and-fall-back bounds the cost of one misspeculation inside it. A
// run that would speculate asks Allow once; a refusal runs conventionally. A
// speculative run Records once, when it is over, whether it failed: aborted,
// panicked or timed out. telemetry.Breaker is the failure-rate
// implementation. Implementations must be safe for concurrent runs.
type Admission interface {
	Allow() bool
	Record(failed bool)
}

// Options configures one run of the engine. All values correspond to state
// space dimensions (§3.3) chosen by the autotuner.
type Options struct {
	// UseAux enables speculation. When false the dependence is satisfied
	// conventionally (the paper's baseline) under either protocol.
	UseAux bool
	// Protocol selects how the run parallelizes the input chain:
	// ProtocolAux (the zero value) is the paper's aux-state speculation;
	// ProtocolReservations is the deterministic reserve/check/commit
	// protocol of reservations.go, which needs no auxiliary code and no
	// validation — sequential order is preserved by construction.
	Protocol Protocol
	// GroupSize is the input-group cardinality G. Values below 1 are
	// treated as 1.
	GroupSize int
	// Window is the number of previous inputs the auxiliary code
	// consumes (k). Negative values are treated as 0.
	Window int
	// RedoMax is the number of times the original producer may
	// re-execute per validation (R). Negative values are treated as 0.
	RedoMax int
	// Rollback is how many inputs a re-execution goes back (W), clamped
	// to [1, group length].
	Rollback int
	// Workers is the number of lanes a run executes groups on, the calling
	// goroutine included; a private pool is Workers − 1 wide, and none is
	// built for one lane. Zero or less means the given Pool's width plus the
	// caller, or one lane without a Pool. Under ProtocolReservations the
	// coordinator takes no chunk of a fanned-out wave: Workers (else the
	// given Pool's width) is the wave width and the private pool's.
	Workers int
	// Seed determines every random stream of the run. Runs with equal
	// seeds and options are reproducible; distinct seeds model the
	// program's nondeterminism.
	Seed uint64
	// Pool, when non-nil, supplies the shared worker pool; otherwise the
	// engine creates a private pool for the run's lanes beyond the caller's
	// (see Workers).
	Pool *pool.Pool
	// Obs, when non-nil, receives the run's speculation event log and
	// metrics: the engine reports every speculation decision point
	// (group start/finish, auxiliary state production, validation
	// match/mismatch, redo, abort, squash, fallback) with one
	// obs.Observer.Note, which advances the fact's counter and emits its
	// event together. A nil Obs costs one branch per decision point.
	Obs *obs.Observer
	// GroupTimeout bounds one speculative group execution's wall-clock
	// time. A lane exceeding it is squashed exactly like a validation
	// mismatch: the group and its successors abort and the inputs are
	// reprocessed sequentially. Zero disables the deadline. Group 0 is
	// exempt — its outputs are committed unconditionally, so squashing
	// it would gain nothing.
	GroupTimeout time.Duration
	// Breaker, when non-nil, gates speculation (see Admission): a run asks
	// Allow before speculating (a refusal executes conventionally and is
	// counted in Stats.BreakerDenied) and Records its abort/panic/timeout
	// outcome afterwards. Leave it nil rather than holding a nil pointer.
	Breaker Admission
	// Sched, when non-nil, is the controlled scheduler (internal/sched):
	// the engine yields at every nondeterministic decision point — aux
	// production, group start/step/finish, validation, redo, squash,
	// fallback entry, breaker admission/recording — so adversarial
	// interleavings can be explored and recorded schedules replayed. A
	// nil Sched costs one branch per decision point (the Options.Obs
	// discipline). Under a controller a positive GroupTimeout stops
	// consulting the real clock (parked time would count) and instead
	// asks the controller each step whether the deadline expired
	// (sched.PointTimeoutCheck), making timeout races schedulable. The
	// worker pool takes no part in the schedule: which worker runs a
	// lane's task decides nothing the run can observe.
	Sched sched.Controller
	// SchedLane is the run's base lane in the controller's namespace:
	// the coordinator yields on SchedLane (breaker and fallback points
	// only; it is blocked from the fan-out until every lane is done — its
	// own lane loop included — and around a private pool's close) and the
	// lane that claimed group j, the caller's or a pool task's, on
	// SchedLane+1+j — the group's own points and, while it holds the
	// resolver role after finishing the group, validate, redo and squash.
	// Concurrent runs sharing one controller must use disjoint bases
	// (any spacing of 1+maxGroups works).
	SchedLane int
	// FootprintCheck enables the dynamic footprint oracle under
	// ProtocolReservations: when the dependence's ReserveOps provides a
	// Touched hook, every winner's actually-touched slots are
	// cross-checked against its declared Footprint before commit. A
	// violation squashes the group (like a contained panic), falls back
	// to sequential re-execution, and counts in
	// Stats.FootprintViolations — the sanitizer catching what static
	// ⊤-widening lets through. Debug mode: it pays one extra state
	// clone per invocation.
	FootprintCheck bool
}

// Stats reports what the runtime did during a run. The profiler and the
// evaluation harness consume these to account overhead, abort rates, and
// wasted work.
type Stats struct {
	Inputs  int // inputs processed
	Groups  int // groups formed (1 means sequential)
	Matches int // speculative states accepted
	// Redos counts original-producer re-executions attempted; one that
	// panicked part-way is still a redo.
	Redos int
	// FingerprintHits and FingerprintMisses count hash-first acceptance
	// attempts (boundary validations and redo re-checks) whose
	// fingerprint prefilter passed through to MatchAny vs rejected
	// without a deep compare. Both stay 0 unless the dependence defines
	// both Fingerprint and MatchAny.
	FingerprintHits   int
	FingerprintMisses int
	// Aborts counts boundary resolutions that aborted speculation:
	// exhausted redo budgets, contained panics and group deadlines (the
	// latter two also counted in PanickedGroups/TimedOutGroups). An abort
	// caused by a failed lane ends the boundary before any validation
	// runs, so it is an abort without an observation in the observer's
	// validation histograms: their Count is Matches+Aborts minus those.
	Aborts int

	// SpeculativeCommits counts inputs whose outputs were committed from
	// a speculative (group > 0) execution.
	SpeculativeCommits int
	// SquashedInputs counts inputs whose speculative outputs were thrown
	// away by an abort.
	SquashedInputs int
	// FallbackInputs counts inputs re-processed sequentially after an
	// abort.
	FallbackInputs int
	// Invocations counts every Compute call, including re-executions and
	// squashed work; UsefulInvocations counts only calls whose output was
	// committed.
	Invocations       int64
	UsefulInvocations int64
	// AuxCalls counts auxiliary-code executions and AuxInputs the total
	// inputs they consumed, counted on the lanes where the aux runs: one
	// per group after the first on a run that does not abort; on an
	// aborting run a group squashed before its lane task started skips its
	// aux, so the count is the schedule's (a panicked call is counted).
	AuxCalls  int
	AuxInputs int

	// PanickedGroups counts speculative groups squashed because user
	// code panicked on their lane (compute, aux, clone, or the
	// boundary's match/redo). The panic is contained: the group's
	// inputs are reprocessed sequentially and the process survives.
	PanickedGroups int
	// Panics carries each contained speculative-path panic with the same
	// value+stack fidelity *PanicError gives the sequential path: the
	// original panic value and the stack captured during the unwind — on
	// the group's lane, or for a match/redo panic on the lane that was
	// resolving the boundary. Under ProtocolAux entries are in group order
	// (the coordinator sweeps them once every lane is done); under
	// ProtocolReservations in the order the coordinator observed them.
	Panics []*PanicError
	// TimedOutGroups counts speculative groups squashed because their
	// lane exceeded Options.GroupTimeout.
	TimedOutGroups int
	// BreakerDenied is 1 when the run's speculation was suppressed by an
	// open Options.Breaker (the run executed conventionally), else 0.
	// It is an int so aggregation across runs counts denials.
	BreakerDenied int

	// Rounds counts reserve/check/commit rounds executed by the
	// deterministic-reservations protocol, summed over the run's groups
	// (0 under ProtocolAux).
	Rounds int
	// ReservationConflicts counts inputs that lost a reserved slot to a
	// lower-indexed input at check time and carried forward — into a
	// later round, or into the fallback when their round broke.
	ReservationConflicts int
	// FootprintViolations counts state slots the FootprintCheck oracle
	// caught a compute touching outside its declared reservation
	// footprint (0 unless Options.FootprintCheck is set).
	FootprintViolations int
	// ConventionalInputs counts inputs committed by the reservations
	// protocol's conventional streaks: groups that followed one whose waves
	// the run measured not worth fanning out, run in index order on one
	// clone of the committed state with no rounds. Reservation commits,
	// ConventionalInputs and FallbackInputs add up to Inputs.
	ConventionalInputs int

	// LaneCPUCommittedNS and LaneCPUWastedNS split the run's lane
	// CPU-time — wall-clock nanoseconds measured at lane boundaries
	// (aux, group execution, redo, reservation compute chunks,
	// sequential fallback) — by whether the work's results were
	// committed or discarded. Their ratio is the paper's speculation
	// trade made visible: wasted/(wasted+committed) is the price paid
	// for the wall-clock win. Purely sequential runs report zero for
	// both (no lane boundaries are crossed).
	LaneCPUCommittedNS int64
	LaneCPUWastedNS    int64

	// Scheduler counters, deltas over this run of the worker pool's
	// sharded work-stealing dispatcher (§3.4 runtime). Steals are
	// cross-worker dispatches, LocalHits the contention-free local-deque
	// fast path. They count lane tasks, not groups: at most Workers − 1 per
	// aux run (0 for one lane), one per chunk of a fanned-out wave under
	// reservations. On a shared pool with concurrent runs the deltas
	// attribute pool-wide activity to each overlapping run.
	Steals    int64
	LocalHits int64
	// QueueDepthPeak is the pool's peak single-deque depth as of the end
	// of the run (a lifetime high-water mark, not a delta; 0 for a run that
	// leased no pool). An aux run queues at most its Workers − 1 lane tasks.
	QueueDepthPeak int64
}

// Add folds another run's Stats into s, for a program whose answer takes
// several engine runs: every count sums, QueueDepthPeak (a high-water
// mark) takes the larger, and Panics appends. TestStatsAddCoversEveryField
// fails when a new field is left out.
func (s *Stats) Add(o Stats) {
	s.Inputs += o.Inputs
	s.Groups += o.Groups
	s.Matches += o.Matches
	s.Redos += o.Redos
	s.FingerprintHits += o.FingerprintHits
	s.FingerprintMisses += o.FingerprintMisses
	s.Aborts += o.Aborts
	s.SpeculativeCommits += o.SpeculativeCommits
	s.SquashedInputs += o.SquashedInputs
	s.FallbackInputs += o.FallbackInputs
	s.Invocations += o.Invocations
	s.UsefulInvocations += o.UsefulInvocations
	s.AuxCalls += o.AuxCalls
	s.AuxInputs += o.AuxInputs
	s.PanickedGroups += o.PanickedGroups
	s.Panics = append(s.Panics, o.Panics...)
	s.TimedOutGroups += o.TimedOutGroups
	s.BreakerDenied += o.BreakerDenied
	s.Rounds += o.Rounds
	s.ReservationConflicts += o.ReservationConflicts
	s.FootprintViolations += o.FootprintViolations
	s.ConventionalInputs += o.ConventionalInputs
	s.LaneCPUCommittedNS += o.LaneCPUCommittedNS
	s.LaneCPUWastedNS += o.LaneCPUWastedNS
	s.Steals += o.Steals
	s.LocalHits += o.LocalHits
	s.QueueDepthPeak = max(s.QueueDepthPeak, o.QueueDepthPeak)
}

// Dependence is a runnable state dependence: the compute target, its
// auxiliary code, and the state methods.
type Dependence[I, S, O any] struct {
	compute Compute[I, S, O]
	aux     Aux[I, S]
	ops     StateOps[S]
	// reserve, when non-nil, decomposes the state into slots for the
	// deterministic-reservations protocol (WithReserve); nil falls back
	// to a whole-state single slot.
	reserve *ReserveOps[I, S]

	// scratch and resvScratch recycle the per-run working sets of
	// runSpeculative and runReservations through sync.Pool, so a warm
	// Run on a reused Dependence allocates (almost) nothing. Both make
	// the Dependence non-copyable once used; the engine only ever hands
	// out pointers.
	scratch     sync.Pool
	resvScratch sync.Pool
}

// New returns a Dependence. compute and ops.Clone must be non-nil; aux and
// ops.MatchAny may be nil (no auxiliary code / by-construction acceptance,
// like the paper's swaptions, streamcluster and streamclassifier, whose
// speculative state "could have already been generated by an execution of
// the original program").
func New[I, S, O any](compute Compute[I, S, O], aux Aux[I, S], ops StateOps[S]) *Dependence[I, S, O] {
	if compute == nil {
		panic("core: nil compute")
	}
	if ops.Clone == nil {
		panic("core: nil state clone")
	}
	return &Dependence[I, S, O]{compute: compute, aux: aux, ops: ops}
}

// Run processes inputs starting from initial, returning the outputs in input
// order, the final state, and run statistics. The initial state is not
// mutated (every lane that starts from it starts from a Clone).
//
// Fault isolation: a panic in user code on a speculative lane (a group
// execution, auxiliary-state production, or a boundary's match/redo) is
// contained — the affected groups are squashed and their inputs reprocessed
// sequentially, counted in Stats.PanickedGroups. A panic on the sequential
// or fallback path has no safe fallback left and propagates to the caller;
// use RunChecked to receive it as an error instead.
func (d *Dependence[I, S, O]) Run(inputs []I, initial S, opts Options) ([]O, S, Stats) {
	return d.runAll(inputs, initial, opts, nil)
}

// PanicError is the error RunChecked and RunStreamChecked return when user
// code panicked with no safe fallback left (on the sequential or fallback
// path): the original panic value plus the stack captured while the panic
// was still unwinding, so the panic site is preserved.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery
	// time during the unwind — it includes the panic origin's frames.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: user code panicked with no safe fallback: %v", e.Value)
}

// RunChecked is Run with sequential-path panics converted to a *PanicError
// instead of propagating. Speculative-lane panics are contained either way
// (see Run); RunChecked only changes how the unrecoverable ones surface.
func (d *Dependence[I, S, O]) RunChecked(inputs []I, initial S, opts Options) (outs []O, final S, st Stats, err error) {
	return d.RunStreamChecked(inputs, initial, opts, nil)
}

// runAll is the engine entry shared by Run and RunStream.
func (d *Dependence[I, S, O]) runAll(inputs []I, initial S, opts Options, emit Emit[O]) ([]O, S, Stats) {
	var st Stats
	st.Inputs = len(inputs)
	root := rng.New(opts.Seed)

	if len(inputs) == 0 {
		st.Groups = 0
		return nil, d.ops.Clone(initial), st
	}

	ctl := opts.Sched
	if ctl != nil {
		// Retire the coordinator lane however the run ends, including a
		// sequential-path panic unwinding through RunChecked.
		defer ctl.Done(opts.SchedLane)
	}

	g := max(opts.GroupSize, 1)
	// Reservations need no auxiliary code; aux speculation does.
	speculating := opts.UseAux && g < len(inputs) &&
		(opts.Protocol == ProtocolReservations || d.aux != nil)
	if speculating && opts.Breaker != nil {
		if ctl != nil {
			ctl.Yield(sched.PointBreakerAllow, opts.SchedLane)
		}
		if !opts.Breaker.Allow() {
			speculating = false
			st.BreakerDenied = 1
			opts.Obs.Note(obs.LaneCoord, obs.EvBreakerDenied, -1, 0)
		}
	}
	if !speculating {
		outs, final := d.runSequential(root, inputs, d.ops.Clone(initial), &st, emit, 0)
		st.Groups = 1
		return outs, final, st
	}
	// The protocols fill st through the run frame; it is complete (scheduler
	// deltas included) once they return.
	var (
		outs  []O
		final S
	)
	switch opts.Protocol {
	case ProtocolAux:
		outs, final = d.runSpeculative(root, inputs, initial, g, &opts, &st, emit)
	case ProtocolReservations:
		outs, final = d.runReservations(root, inputs, initial, g, &opts, &st, emit)
	default:
		panic(fmt.Sprintf("core: unknown protocol %d", opts.Protocol))
	}
	if opts.Breaker != nil {
		if ctl != nil {
			ctl.Yield(sched.PointBreakerRecord, opts.SchedLane)
		}
		opts.Breaker.Record(st.Aborts > 0 || st.PanickedGroups > 0 || st.TimedOutGroups > 0)
	}
	return outs, final, st
}

// runSequential is the conventional execution: one invocation after
// another. Outputs stream through emit (when non-nil) as they are
// computed; base is the global index of the first input.
func (d *Dependence[I, S, O]) runSequential(r *rng.Source, inputs []I, s S, st *Stats, emit Emit[O], base int) ([]O, S) {
	outs := make([]O, 0, len(inputs))
	// One reused child source for the whole walk: SplitInto draws the
	// same stream per invocation as the old per-call Split without an
	// allocation per input.
	var src rng.Source
	for i, in := range inputs {
		var o O
		r.SplitInto(&src)
		o, s = d.compute(&src, in, s)
		st.Invocations++
		st.UsefulInvocations++
		outs = append(outs, o)
		if emit != nil {
			emit(base+i, o)
		}
	}
	return outs, s
}

// execution is one (re-)execution of a group suffix: its outputs and final
// state.
type execution[S, O any] struct {
	outputs []O
	final   S
}

// groupFailure records why a group's speculative results are unusable.
type groupFailure int

const (
	failNone      groupFailure = iota
	failPanic                  // user code panicked (contained)
	failTimeout                // the lane exceeded Options.GroupTimeout
	failFootprint              // the FootprintCheck oracle caught a lying footprint
)

// groupRun holds the state of one input group during a speculative run.
// Records are owned by a runScratch (allocated a slab at a time, begin) and
// recycled run after run: every scalar field is reset by splitStreams, the
// random sources are re-split into place, and the output buffers keep their
// capacity with their elements cleared between runs (no stale user values
// parked in the pool).
type groupRun[I, S, O any] struct {
	idx        int // group index, used as the trace lane hint
	start, end int // input index range [start, end)
	// specStart is the state the group starts from (spec or a clone of S0)
	// — which it updates in place unless a boundary will compare it, so only
	// a validated group's is read back — auxRan whether its auxiliary code
	// was called to produce it, and calls how many computes its execution
	// made: written by the group's lane before
	// it sets finished (group 0's specStart by launch), read by the resolver
	// after it sees finished and by the coordinator once every lane is done.
	specStart S
	auxRan    bool
	calls     int64

	// First (original) execution results.
	base execution[S, O]
	// checkpoint is a clone of the state before the last W inputs of the
	// group, from which re-executions restart, kept only where one can
	// (runScratch.validated, a redo budget, a boundary after the group);
	// checkpointAt is its input index.
	checkpoint   S
	checkpointAt int

	// specSrc feeds the group's auxiliary code, execSrc its execution,
	// and redoSrc its re-executions; callSrc and redoCallSrc are the
	// per-invocation children execSrc/redoSrc split into (value storage,
	// so a warm run derives every stream without allocating).
	specSrc     rng.Source
	execSrc     rng.Source
	redoSrc     rng.Source
	callSrc     rng.Source
	redoCallSrc rng.Source

	aborted  atomic.Bool // set to squash this group's in-flight work
	finished atomic.Bool // set by the group's lane when its task body is over

	// failure is why the group's results are unusable, with failArg the
	// matching event argument (elapsed ns for timeouts) and panicErr the
	// contained panic's value+stack when failure is failPanic. Written
	// by the lane before it sets finished (aux, clone or compute panic, or
	// the deadline), or by the resolver after it saw finished (match/redo
	// panic), so every read — the boundary inspection and the post-wg.Wait
	// sweep — is ordered after the write.
	failure  groupFailure
	failArg  int64
	panicErr *PanicError

	// execNS is the group execution's wall-clock lane time, written by
	// the lane before it sets finished and read after wg.Wait for
	// wasted-work attribution; redoNS is the same for its re-executions,
	// which run on whichever lane holds the resolver role. Both are
	// recorded on every exit — panic included, so a contained user-code
	// panic still attributes the CPU burned before it. clock is the last
	// clock reading of the group's lane task (runFrame.now): each phase —
	// aux, execution, every boundary the task resolves — ends with one read
	// and the next starts from it.
	execNS, redoNS, clock int64

	// outBuf, redoBuf and spliceBuf back the group's execution outputs,
	// its re-execution outputs, and the spliced committed outputs.
	outBuf    []O
	redoBuf   []O
	spliceBuf []O
}

// runScratch is the recycled working set of one runSpeculative call: the
// run frame, group records, the per-group timing/committed arrays, the
// originals set (plus its fingerprints), and the pool task. A Dependence
// keeps scratches in a sync.Pool, so a warm Run allocates only what it must
// return (the outputs slice) plus whatever user code allocates. Every pool
// task of a run is the one method value task — a lane, which claims groups
// from ticket until none is left — so it survives recycling with nothing to
// rebind, and a run submits one per lane beyond the caller's, not one per
// group.
type runScratch[I, S, O any] struct {
	runFrame
	d       *Dependence[I, S, O]
	inputs  []I
	initial S
	emit    Emit[O]

	window, rollback, redoMax int
	// validated: the dependence has a MatchAny, so a boundary reads the
	// speculative start state — and may redo — after the group has run.
	// Without one, acceptance is by construction and nothing is read back.
	validated bool
	hashFirst bool // validate fingerprints before the deep MatchAny

	groups []*groupRun[I, S, O]
	task   pool.Task
	tasks  []pool.Task // task, once per pool lane: SubmitBatch takes a slice

	// ticket is the next group index to claim: lanes — the caller's and the
	// pool's — start groups in strict index order whatever the pool's
	// sharding or stealing did. next is the
	// first unresolved boundary (boundary 0 is group 0's own inspection),
	// numGroups once the last one resolved or one aborted; the resolver
	// stores it after the boundary's writes, so a coordinator that loads
	// next > j+1 may read committed[j].
	ticket, next atomic.Int32
	// resolving is the single-holder resolver role. A lane that finishes a
	// group takes it (CAS) and settles, in order, every boundary whose two
	// groups are finished; it re-checks after releasing, so a group that
	// finished while the role was held is never missed. The role serializes
	// resolve/validate/redoGroup/abort and with them every write of Stats,
	// originals, committed, commitNS, wasteNS, abortAt and resolver — the
	// group whose lane task holds the role.
	resolving atomic.Bool
	resolver  *groupRun[I, S, O]
	// nudge, made per streaming run and nil otherwise, wakes the caller — when
	// it waits in stream — after every store of next; emitted is how many
	// groups it has streamed.
	nudge chan struct{}
	// abortAt is the first group index whose speculation failed, -1 while
	// every boundary so far resolved.
	abortAt, emitted int

	// auxNS, commitNS and wasteNS feed the wasted-work attribution:
	// per-group lane nanoseconds, resolved into committed vs discarded
	// when the run's outcome is known (fileLaneCPU). auxNS[j] is written
	// by group j's lane, commitNS and wasteNS by the resolver (redo time)
	// and, after wg.Wait, the coordinator.
	auxNS    []int64
	commitNS []int64
	wasteNS  []int64

	// committed holds, per validated group, the execution whose outputs
	// are committed.
	committed []execution[S, O]
	originals []S
	origFPs   []uint64

	wg sync.WaitGroup // the run's pool lanes; the caller's lane needs none
}

// getScratch fetches (or builds) a scratch for one speculative run.
func (d *Dependence[I, S, O]) getScratch() *runScratch[I, S, O] {
	if v := d.scratch.Get(); v != nil {
		return v.(*runScratch[I, S, O])
	}
	scr := &runScratch[I, S, O]{d: d}
	scr.task = scr.laneTask
	return scr
}

// begin binds the frame and sizes the scratch for the run's groups. It
// arms nothing — wg is armed at launch, so a panic on the coordinator
// between begin and launch (an uncontained group-0 clone) leaves nothing
// armed for the next run.
func (scr *runScratch[I, S, O]) begin(inputs []I, initial S, g int, opts *Options, st *Stats, emit Emit[O]) {
	scr.runFrame.begin(len(inputs), g, 1, opts, st)
	scr.inputs, scr.initial, scr.emit = inputs, initial, emit
	scr.window, scr.rollback, scr.redoMax = max(opts.Window, 0), opts.Rollback, max(opts.RedoMax, 0)
	scr.validated = scr.d.ops.MatchAny != nil
	scr.hashFirst = scr.validated && scr.d.ops.Fingerprint != nil
	scr.abortAt, scr.emitted = -1, 0
	scr.ticket.Store(0)
	scr.next.Store(0)
	if emit != nil {
		scr.nudge = make(chan struct{}, 1)
	}
	// A cold run allocates per run, not per group: the missing records come
	// from one slab, and every group whose recycled output buffer is too
	// small gets a capacity-limited window of one backing array, so its
	// execution never grows the buffer.
	if missing := scr.numGroups - len(scr.groups); missing > 0 {
		slab := make([]groupRun[I, S, O], missing)
		scr.groups = slices.Grow(scr.groups, missing)
		for i := range slab {
			scr.groups = append(scr.groups, &slab[i])
		}
	}
	var backing []O
	for j, gr := range scr.groups[:scr.numGroups] {
		if start, end := scr.bounds(j); cap(gr.outBuf) < end-start {
			if backing == nil {
				backing = make([]O, scr.n)
			}
			gr.outBuf = backing[start:start:end]
		}
	}
	scr.auxNS = cleared(scr.auxNS, scr.numGroups)
	scr.commitNS = cleared(scr.commitNS, scr.numGroups)
	scr.wasteNS = cleared(scr.wasteNS, scr.numGroups)
	scr.committed = cleared(scr.committed, scr.numGroups)
}

// release clears every state-holding reference so the parked scratch
// retains no user data, then returns it to the dependence's pool. Callers
// must not touch the scratch afterwards; everything a run returns (the
// outputs slice, the final state, Stats) is copied out before release.
func (scr *runScratch[I, S, O]) release() {
	var zeroS S
	for _, gr := range scr.groups[:scr.numGroups] {
		gr.specStart = zeroS
		gr.checkpoint = zeroS
		gr.base = execution[S, O]{}
		gr.panicErr = nil
		clear(gr.outBuf[:cap(gr.outBuf)])
		clear(gr.redoBuf[:cap(gr.redoBuf)])
		clear(gr.spliceBuf[:cap(gr.spliceBuf)])
	}
	clear(scr.committed[:scr.numGroups])
	clear(scr.originals[:cap(scr.originals)])
	scr.inputs, scr.initial, scr.emit, scr.nudge, scr.resolver = nil, zeroS, nil, nil, nil
	scr.runFrame = runFrame{}
	scr.d.scratch.Put(scr)
}

// cleared returns s resized to length n with every element zeroed,
// reusing capacity when it suffices.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// runSpeculative implements the §3.1 execution model as the aux policy's
// phases over the run frame: the caller splits the streams, leases the pool
// lanes, runs the groups as the first lane among them, and commits; every
// lane executes groups and resolves the boundaries between them. Outputs
// stream through emit (when non-nil) once they are final: a group's outputs
// when the NEXT boundary's validation has resolved (a redo may splice its
// suffix until then), the last group's at run completion, and fallback
// outputs as they are computed.
func (d *Dependence[I, S, O]) runSpeculative(root *rng.Source, inputs []I, initial S, g int, opts *Options, st *Stats, emit Emit[O]) ([]O, S) {
	scr := d.getScratch()
	scr.begin(inputs, initial, g, opts, st, emit)
	defer scr.release()
	scr.splitStreams(root)
	scr.lease(opts, scr.lanes-1)
	defer scr.finish()
	scr.launch()
	return scr.commit(root)
}

// splitStreams derives all random streams on the coordinator so the run is
// reproducible regardless of scheduling: per-group spec stream, execution
// stream, and redo stream, split into the recycled records in the same
// order a cold run would Split them.
func (scr *runScratch[I, S, O]) splitStreams(root *rng.Source) {
	for j, gr := range scr.groups[:scr.numGroups] {
		gr.idx = j
		gr.start, gr.end = scr.bounds(j)
		root.SplitInto(&gr.specSrc)
		root.SplitInto(&gr.execSrc)
		root.SplitInto(&gr.redoSrc)
		gr.aborted.Store(false)
		gr.finished.Store(false)
		gr.auxRan, gr.calls, gr.checkpointAt = false, 0, 0
		gr.failure, gr.failArg, gr.panicErr = failNone, 0, nil
		gr.execNS, gr.redoNS = 0, 0
	}
}

// launch runs the groups on the run's lanes, the calling goroutine the first
// of them: it submits one lane task per further lane that has a group to
// claim and a pool worker to run on, runs the same loop inline, and returns
// once every lane is done. A one-lane run submits nothing, wakes nothing and
// waits for nothing. Group 0 runs in place on its clone of the initial state,
// made here, uncontained, before wg is armed: nothing between begin and launch
// can strand an armed wg into the next run. Under a controller the caller is out
// of the schedule from the fan-out to the last lane's end — one Block, one
// resume — and the groups it runs yield on their own lanes, like any lane's.
// The deferred wait covers a panic of the caller's lane — an emit between its
// groups or after them: the scratch is never released under a running lane,
// nor with a lane task still queued.
func (scr *runScratch[I, S, O]) launch() {
	scr.groups[0].specStart = scr.d.ops.Clone(scr.initial)
	k := min(scr.lanes, scr.numGroups) - 1
	if k > 0 {
		k = min(k, scr.p.Workers())
	}
	if missing := k - len(scr.tasks); missing > 0 {
		scr.tasks = slices.Grow(scr.tasks, missing)
	}
	for len(scr.tasks) < k {
		scr.tasks = append(scr.tasks, scr.task)
	}
	scr.wg.Add(k)
	scr.blocked(func() {
		defer scr.wg.Wait()
		scr.fanOut(scr.tasks[:k])
		scr.runLane(scr.emit != nil)
		if scr.emit != nil {
			scr.stream(false)
		}
	})
}

// stream emits, on the caller's goroutine and in input order, the groups the
// resolver has made final, waiting for a nudge whenever more must follow. At
// the run's tail (between false) that is until every boundary is resolved.
// Between two groups of the caller's lane it is until something was emitted or
// no other lane holds an unresolved group: the caller does not start a group
// with outputs about to become final behind it, so they wait at most for its
// current group — and never while it could only have idled.
func (scr *runScratch[I, S, O]) stream(between bool) {
	for was := scr.emitted; ; <-scr.nudge {
		k := int(scr.next.Load())
		scr.emitFinal(k - 1) // boundary k-1 resolved: no redo can splice group k-2 any more
		if k >= scr.numGroups || between && (scr.emitted > was || k >= int(scr.ticket.Load())) {
			return
		}
	}
}

// emitFinal streams the committed outputs of the groups below final that
// have not been streamed yet.
func (scr *runScratch[I, S, O]) emitFinal(final int) {
	for ; scr.emit != nil && scr.emitted < final; scr.emitted++ {
		for i, o := range scr.committed[scr.emitted].outputs {
			scr.emit(scr.groups[scr.emitted].start+i, o)
		}
	}
}

// laneTask is the body of every pool task of the run: one lane.
func (scr *runScratch[I, S, O]) laneTask() {
	defer scr.wg.Done()
	scr.runLane(false)
}

// runLane is one lane of the run, the caller's or a pool task's: it claims
// the next group in index order — so group 1 never queues behind group 0 and
// no lane speculates far ahead of the boundary that matters — and runs it,
// until none is left. The caller's lane of a streaming run emits before each
// claim what has become final (stream).
func (scr *runScratch[I, S, O]) runLane(streaming bool) {
	for {
		if streaming {
			scr.stream(true)
		}
		j := int(scr.ticket.Add(1)) - 1
		if j >= scr.numGroups {
			return
		}
		scr.runGroup(j)
	}
}

// runGroup runs group j's aux and its inputs sequentially from the
// (speculative) start state. Then the last arriver resolves: the lane marks
// the group finished and, when the next unresolved boundary has both its
// groups, takes the resolver role and settles boundaries until one is not
// ready, releasing and re-checking so a finish that raced the release is
// picked up by one side or the other.
func (scr *runScratch[I, S, O]) runGroup(j int) {
	gr, lane := scr.groups[j], scr.lane+1+j
	if scr.ctl != nil {
		// Retire the group lane on every exit, panic included, before the
		// lane's end releases the caller.
		defer scr.ctl.Done(lane)
	}
	gr.clock = scr.now()
	// Panic isolation: a panic in user code on this lane — the auxiliary
	// code, a clone, the group's computes — marks the group failed, value
	// and stack preserved, and squashes it together with its successors;
	// their results would be discarded anyway once the boundary inspection
	// aborts here. Earlier groups are left running; their results are
	// still committable.
	if pe := contain(func() { scr.produceAux(gr); scr.executeGroup(gr) }); pe != nil {
		gr.failure, gr.panicErr = failPanic, pe
		for _, g := range scr.groups[j:scr.numGroups] {
			g.aborted.Store(true)
		}
	}
	gr.finished.Store(true)
	for scr.ready() && scr.resolving.CompareAndSwap(false, true) {
		for scr.resolver = gr; scr.ready(); {
			scr.next.Store(int32(scr.resolve(int(scr.next.Load()))))
			select {
			case scr.nudge <- struct{}{}:
			default: // not streaming (nil), or one is pending and the caller reads next afresh
			}
		}
		scr.resolving.Store(false)
	}
}

// ready reports whether the next unresolved boundary can resolve: the
// group below it finished before the previous boundary resolved, so only
// the group above it is inspected.
func (scr *runScratch[I, S, O]) ready() bool {
	k := int(scr.next.Load())
	return k < scr.numGroups && scr.groups[k].finished.Load()
}

// produceAux builds group j>0's speculative start state on the group's own
// lane, as the head of its task (§3.1, Fig. 5b): aux(S0, the last `window`
// inputs before the group), from the pre-split specSrc, so the state is the
// same whichever lane runs it, no group waits for another group's aux, and
// the aux work of W lanes overlaps. The lane yields before it inspects the
// abort flag: a group squashed before its task started skips its aux and
// executes nothing. The aux is handed its own clone of the initial state (it
// may build on it; the engine cannot know that it will not) and what it
// returns is the group's to run on.
func (scr *runScratch[I, S, O]) produceAux(gr *groupRun[I, S, O]) {
	if gr.idx == 0 {
		return
	}
	scr.yield(sched.PointAux, scr.lane+1+gr.idx)
	if gr.aborted.Load() {
		return
	}
	recent := scr.inputs[max(gr.start-scr.window, 0):gr.start]
	gr.auxRan = true
	produced := false
	defer func() {
		// One clock read, panic included, feeds the lane-CPU account, the
		// aux event and the start of the group's execution with its event.
		now := scr.now()
		scr.auxNS[gr.idx], gr.clock = now-gr.clock, now
		if produced {
			scr.o.NoteAt(gr.idx, now, obs.EvAuxProduced, int32(gr.idx), obs.AuxArg(len(recent), scr.auxNS[gr.idx]))
		}
	}()
	gr.specStart = scr.d.aux(&gr.specSrc, scr.d.ops.Clone(scr.initial), recent)
	produced = true
}

// executeGroup runs one group's inputs sequentially from its start state,
// recording the checkpoint needed for re-executions. The group owns its start
// state — launch's clone, or its aux's product — and updates it in place
// unless a boundary will read it afterwards (a validated group after the
// first), when it runs on a clone; it clones a checkpoint only where a redo
// can restart from one. If the group is aborted mid-flight it bails out
// early; its results are then never read.
// A positive timeout bounds the group's wall-clock execution (group 0 is
// exempt: its outputs commit unconditionally, so squashing it gains
// nothing). Group start/finish events go to the observer (nil-checked) so
// the observed schedule shows every group's execution span, squashed or
// not. Under a controller the lane yields at start, before every step's
// abort-flag inspection, and at finish.
func (scr *runScratch[I, S, O]) executeGroup(gr *groupRun[I, S, O]) {
	d, lane := scr.d, scr.lane+1+gr.idx
	checkpointAt := gr.end - min(max(scr.rollback, 1), gr.end-gr.start)
	deadlined := scr.timeout > 0 && gr.idx > 0
	compared := scr.validated && gr.idx > 0
	redoable := scr.validated && scr.redoMax > 0 && gr.idx < scr.numGroups-1
	started, returned := gr.clock, -1
	defer func() {
		// One clock read, panic included, closes execNS and stamps the
		// finish event of a group that returned: the span a view draws from
		// the two events is the nanoseconds the lane-CPU account files.
		now := scr.now()
		gr.execNS, gr.clock = now-started, now
		if returned >= 0 {
			scr.o.NoteAt(gr.idx, now, obs.EvGroupFinish, int32(gr.idx), int64(returned))
		}
	}()
	scr.yield(sched.PointGroupStart, lane)
	scr.o.NoteAt(gr.idx, started, obs.EvGroupStart, int32(gr.idx), int64(gr.start))
	var s S
	outs := gr.outBuf[:0]
	gr.checkpointAt = checkpointAt
	for idx := gr.start; idx < gr.end; idx++ {
		// Yield before the abort-flag inspection, so the controller
		// decides whether this step observes a concurrent squash.
		scr.yield(sched.PointGroupStep, lane)
		if gr.aborted.Load() {
			// Squashed: record what we have; it will be discarded.
			break
		}
		if deadlined {
			if expired, elapsedNS := scr.expired(started, lane); expired {
				// Deadline exceeded: squash exactly like a validation
				// mismatch. Only this lane is marked; the resolver's
				// boundary inspection squashes the successors.
				gr.failure, gr.failArg = failTimeout, elapsedNS
				gr.aborted.Store(true)
				break
			}
		}
		if idx == gr.start {
			// After the first inspection: a group squashed before it
			// started clones nothing (and has no start state).
			s = gr.specStart
			if compared {
				s = d.ops.Clone(s)
			}
		}
		if idx == checkpointAt && redoable {
			gr.checkpoint = d.ops.Clone(s)
		}
		var o O
		gr.execSrc.SplitInto(&gr.callSrc)
		o, s = d.compute(&gr.callSrc, scr.inputs[idx], s)
		gr.calls++
		outs = append(outs, o)
	}
	scr.yield(sched.PointGroupFinish, lane)
	gr.outBuf = outs
	gr.base = execution[S, O]{outputs: outs, final: s}
	returned = len(outs)
}

// abort ends speculation at group j: it squashes groups j.., records the
// boundary outcome, and returns the boundary to resolve next — none is left,
// so numGroups. The squash yield comes AFTER the abort flags are
// set (a post-write yield): parking the resolver there lets the controller
// decide which in-flight lanes observe the squash mid-group and which run
// to completion first — the validate/squash race the exploration harness
// targets.
func (scr *runScratch[I, S, O]) abort(j, redosUsed int, now int64) int {
	scr.noteAbort(j, redosUsed, now)
	scr.abortAt = j
	for _, gr := range scr.groups[j:scr.numGroups] {
		gr.aborted.Store(true)
	}
	scr.noteSquash(j, scr.groups[j].end-scr.groups[j].start)
	scr.yield(sched.PointSquash, scr.lane+1+scr.resolver.idx)
	return scr.numGroups
}

// boundary is the progress of one boundary's validation, kept outside
// validate so a contained panic leaves it readable.
type boundary[S, O any] struct {
	matched        bool
	redosUsed      int
	acceptedRedoNS int64
	// accepted is the previous group's execution to commit: its first
	// execution, or that spliced with the matching re-execution's suffix.
	accepted execution[S, O]
}

// resolve settles boundary j — between groups j-1 and j, both finished —
// on the lane holding the resolver role, and returns the boundary to settle
// next: j+1 when speculation survives, numGroups when it aborted. First the
// group's own execution must have survived (no contained panic, no deadline
// squash); that is all of boundary 0, since group 0 is never speculative: it
// ran from the true initial state, and when its lane failed nothing is
// committed and the whole vector falls back. Then validate runs the
// developer's acceptance against the previous group's originals. A panic
// anywhere in it — fingerprint, match, or the previous group's re-execution
// — means the boundary cannot resolve: the unvalidated group is squashed
// like a mismatch and the panic attributed to it.
func (scr *runScratch[I, S, O]) resolve(j int) int {
	cur, o, self := scr.groups[j], scr.o, scr.resolver
	if cur.failure != failNone {
		return scr.abort(j, 0, scr.stamp())
	}
	if j == 0 {
		scr.committed[0] = cur.base
		return 1
	}
	vstart := self.clock
	scr.yield(sched.PointValidate, scr.lane+1+self.idx)
	var b boundary[S, O]
	pe := contain(func() { scr.validate(j, &b) })
	// Redo lane time burned at this boundary: the accepted re-execution
	// (if any) produced committed outputs, every other redo is wasted work
	// on the producing group.
	scr.commitNS[j-1] += b.acceptedRedoNS
	scr.wasteNS[j-1] += scr.groups[j-1].redoNS - b.acceptedRedoNS
	// Every boundary whose validation started is observed, however it ended:
	// one reading closes its latency, stamps its outcome and starts the next
	// boundary this task resolves.
	if o != nil {
		self.clock = scr.now()
		o.ValidationLatencyNS.Observe(self.clock - vstart)
		o.RedosPerValidation.Observe(int64(b.redosUsed))
	}
	if pe == nil && b.matched {
		scr.noteMatch(j, b.redosUsed, self.clock)
		scr.committed[j-1], scr.committed[j] = b.accepted, cur.base
		return j + 1
	}
	// Speculation failed — a mismatch past the redo budget, or a panic that
	// left the boundary unresolved: abort this and all subsequent groups.
	if pe != nil {
		cur.failure, cur.panicErr = failPanic, pe
	}
	return scr.abort(j, b.redosUsed, self.clock)
}

// validate asks the developer's acceptance method whether group j's
// speculative start state matches an original final state of group j-1:
// its committed first execution, then up to redoMax re-executions of its
// last W inputs. Re-executions replace only the suffix after the
// checkpoint, so the originals set always extends the committed prefix.
// It calls user code uncontained; resolve contains it.
func (scr *runScratch[I, S, O]) validate(j int, b *boundary[S, O]) {
	prev, spec := scr.groups[j-1], scr.groups[j].specStart
	var specFP uint64
	if scr.hashFirst {
		specFP = scr.d.ops.Fingerprint(spec)
	}
	scr.originals, scr.origFPs = scr.originals[:0], scr.origFPs[:0]
	scr.addOriginal(scr.committed[j-1].final)
	b.accepted = scr.committed[j-1]
	b.matched = scr.accepts(spec, specFP)
	if !b.matched {
		scr.o.Note(obs.LaneCoord, obs.EvValidateMismatch, int32(j), 0)
	}
	for !b.matched && b.redosUsed < scr.redoMax {
		b.redosUsed++
		scr.noteRedo(j, b.redosUsed)
		scr.yield(sched.PointRedo, scr.lane+1+scr.resolver.idx)
		before := prev.redoNS
		redo := scr.redoGroup(prev)
		scr.addOriginal(redo.final)
		if scr.accepts(spec, specFP) {
			// Commit the matching re-execution's suffix in place of the
			// first execution's.
			b.matched, b.acceptedRedoNS = true, prev.redoNS-before
			b.accepted = spliceExecution(scr.committed[j-1], redo, prev)
		}
	}
}

// addOriginal adds one original state (and, hash-first, its fingerprint)
// to the boundary's set, which lives in recycled scratch storage.
func (scr *runScratch[I, S, O]) addOriginal(s S) {
	if scr.hashFirst {
		scr.origFPs = append(scr.origFPs, scr.d.ops.Fingerprint(s))
	}
	scr.originals = append(scr.originals, s)
}

// accepts resolves one acceptance attempt against the boundary's
// originals. A nil MatchAny accepts by construction. Hash-first
// dependences consult the fingerprint prefilter: when no original's
// fingerprint equals the speculative state's, MatchAny cannot accept (the
// contract makes equal fingerprints a necessary condition), so the attempt
// is a recorded miss with no deep compare; a hit falls through to MatchAny.
func (scr *runScratch[I, S, O]) accepts(spec S, specFP uint64) bool {
	if scr.d.ops.MatchAny == nil {
		return true
	}
	if scr.hashFirst {
		hit := slices.Contains(scr.origFPs, specFP)
		scr.noteFingerprint(hit)
		if !hit {
			return false
		}
	}
	return scr.d.ops.MatchAny(spec, scr.originals)
}

// redoGroup re-executes the suffix of a group after its checkpoint with
// fresh randomness, on a clone (the next redo restarts from the same
// checkpoint), returning the suffix execution. The outputs reuse the
// group's redo buffer: a boundary consumes each redo (accepting it into a
// splice or discarding it) before requesting the next, so one buffer per
// group suffices.
func (scr *runScratch[I, S, O]) redoGroup(gr *groupRun[I, S, O]) execution[S, O] {
	started := scr.now()
	defer func() {
		gr.redoNS += scr.now() - started
	}()
	s := scr.d.ops.Clone(gr.checkpoint)
	outs := gr.redoBuf[:0]
	for idx := gr.checkpointAt; idx < gr.end; idx++ {
		var o O
		gr.redoSrc.SplitInto(&gr.redoCallSrc)
		o, s = scr.d.compute(&gr.redoCallSrc, scr.inputs[idx], s)
		scr.st.Invocations++
		outs = append(outs, o)
	}
	gr.redoBuf = outs
	return execution[S, O]{outputs: outs, final: s}
}

// spliceExecution replaces the post-checkpoint suffix of base with the
// re-executed suffix, yielding the committed execution for the group. The
// merged outputs live in the group's splice buffer — a group is spliced
// at most once per run (an accepted redo ends its boundary), so the
// buffer is never overwritten while referenced.
func spliceExecution[I, S, O any](base execution[S, O], redo execution[S, O], gr *groupRun[I, S, O]) execution[S, O] {
	prefix := gr.checkpointAt - gr.start
	outs := gr.spliceBuf[:0]
	outs = append(outs, base.outputs[:prefix]...)
	outs = append(outs, redo.outputs...)
	gr.spliceBuf = outs
	return execution[S, O]{outputs: outs, final: redo.final}
}

// commit assembles the run's result once every lane is done: the
// validated prefix's outputs in order (all groups when no boundary
// aborted), then — per §3.1, "no other speculation is performed until all
// the current inputs are processed" — the sequential fallback over the
// rest.
func (scr *runScratch[I, S, O]) commit(root *rng.Source) ([]O, S) {
	st, valid := scr.st, scr.numGroups
	if scr.abortAt >= 0 {
		valid = scr.abortAt
		scr.sweepFailures()
	}
	outs := make([]O, 0, scr.n)
	for j, gr := range scr.groups[:valid] {
		outs = append(outs, scr.committed[j].outputs...)
		if j > 0 {
			scr.noteSpecCommits(gr.end - gr.start)
		}
	}
	for _, gr := range scr.groups[:scr.numGroups] {
		// Redo calls were counted by the resolver.
		st.Invocations += gr.calls
		if gr.auxRan { // counted where the aux ran: a squashed group may have skipped it
			st.AuxCalls++
			st.AuxInputs += min(scr.window, gr.start)
		}
	}
	// The last valid group's outputs had no next boundary to finalize
	// them; its first original final state is where a fallback resumes (a
	// clone of the initial state when group 0 itself failed).
	var final S
	scr.emitFinal(valid)
	if valid > 0 {
		final = scr.committed[valid-1].final
	} else {
		final = scr.d.ops.Clone(scr.initial)
	}
	if scr.abortAt < 0 {
		st.UsefulInvocations += int64(scr.n) // one committed invocation per input
	} else {
		outs, final = scr.fallBack(root, final, outs)
	}
	scr.fileLaneCPU()
	return outs, final
}

// sweepFailures counts and traces each contained panic and deadline
// squash once every lane is done and the flags are final — groups past the
// abort point may have failed concurrently before the squash reached them,
// and those panics were contained too. The panic's value and stack ride
// out of the run in Stats.Panics (the EvPanic event's fixed-size argument
// stays the input count).
func (scr *runScratch[I, S, O]) sweepFailures() {
	for j, gr := range scr.groups[:scr.numGroups] {
		switch gr.failure {
		case failPanic:
			scr.notePanic(j, int64(gr.end-gr.start), gr.panicErr)
		case failTimeout:
			scr.noteTimeout(j, gr.failArg)
		}
	}
}

// fallBack reprocesses the inputs from the aborting group on sequentially
// from state, continuing the root random stream, and appends to the
// committed prefix's outputs.
func (scr *runScratch[I, S, O]) fallBack(root *rng.Source, state S, outs []O) ([]O, S) {
	at := scr.abortAt
	start := scr.groups[at].start
	scr.noteFallback(at, scr.n-start)
	fbStart := scr.now()
	fbOuts, final := scr.d.runSequential(root, scr.inputs[start:], state, scr.st, scr.emit, start)
	// The sequential fallback produced committed outputs; its time is
	// filed against the aborting group, whose speculative work it redid.
	scr.commitNS[at] += scr.now() - fbStart
	scr.st.UsefulInvocations += int64(start)
	return append(outs, fbOuts...), final
}

// fileLaneCPU resolves the attribution once the outcome is known: groups
// before the abort point (all of them when speculation succeeded)
// committed their exec+aux lane time, groups at or past it wasted theirs;
// redo and fallback time was already filed into commitNS/wasteNS at the
// boundary that spent it. Every read of execNS and auxNS is ordered after
// the lane's write by wg.Wait (the caller's own lane: by program order).
func (scr *runScratch[I, S, O]) fileLaneCPU() {
	now := scr.stamp()
	for j, gr := range scr.groups[:scr.numGroups] {
		spent := gr.execNS + scr.auxNS[j]
		if scr.abortAt >= 0 && j >= scr.abortAt {
			scr.wasteNS[j] += spent
		} else {
			scr.commitNS[j] += spent
		}
		scr.noteLaneCPU(j, scr.commitNS[j], scr.wasteNS[j], now)
	}
}
