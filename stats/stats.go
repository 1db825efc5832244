// Package stats is the public API of this STATS reproduction: the State
// Dependence Interface (SDI) and Tradeoff Interface (TI) of §3.3, backed by
// the speculative runtime of §3.1 and the autotuner of §3.5.
//
// A state dependence is the code pattern of Figure 4: a chain of
// invocations (O_i, S_{i+1}) = computeOutput(I_i, S_i) serialized by the
// state S. If the computation is nondeterministic and an alternative
// producer ("auxiliary code") can rebuild an acceptable S from the initial
// state plus a few recent inputs, the runtime overlaps groups of
// invocations, validates the auxiliary states against (possibly
// re-executed) original states, and falls back to conventional execution
// when validation fails — preserving output quality by construction.
//
// Minimal use, mirroring Figure 8:
//
//	sd := stats.NewStateDependence(inputs, initialState, computeOutput)
//	sd.SetAuxiliary(auxCode)
//	sd.SetStateOps(cloneState, matchAny)
//	sd.Configure(stats.Options{UseAux: true, GroupSize: 8, Window: 2, RedoMax: 2, Rollback: 2, Workers: 8})
//	if err := sd.Start(); err != nil {
//		return err // ErrAlreadyStarted: a dependence runs once
//	}
//	outputs, final, runStats := sd.Join()
//
// The package's Example functions are the walkthroughs — the tracker above,
// the paper's body tracking with triangulating acceptance, a by-construction
// stream clusterer — and go test checks each against the accounts and
// outputs it prints for a fixed seed (go test ./stats -run Example -v).
// Shared worker pools and live telemetry are Runtime's (NewRuntime, Attach,
// Serve); tuning is Tune's.
//
// Memory: a warm run allocates only what it returns, because the runtime
// parks each run's working set (group records, lane random sources, output
// staging) between runs in a free list per instantiation of its generic
// types, which garbage collection does not empty. The list keeps up to
// max(8, GOMAXPROCS) idle working sets for the life of the process, each as
// large as the largest run that used it, and none of the user's values;
// working sets of runs that overlapped beyond that are recycled only until
// the next collections. A long-lived process that once ran one very large
// dependence therefore keeps that run's buffers.
package stats

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
)

// Rand is the per-invocation randomness source handed to compute and
// auxiliary functions. Re-executions after a rollback receive fresh
// sources; that is what gives the runtime multiple original states to
// validate against.
type Rand = rng.Source

// ComputeFunc is the state-dependence target (computeOutput in Figure 8). The
// state it is handed belongs to the call: it may update it in place and return
// it, and must not retain it; the state it returns belongs to the runtime.
type ComputeFunc[I, S, O any] func(r *Rand, input I, state S) (O, S)

// AuxFunc is auxiliary code: an alternative producer of the state from the
// initial state and a window of recent inputs. initial is a private copy —
// build on it, or ignore it — and the returned state becomes the runtime's,
// which may run the group on it in place: do not return or retain a state
// anything else can reach.
type AuxFunc[I, S any] func(r *Rand, initial S, recent []I) S

// CloneFunc is the state privatization method (operator= in Figure 9), the
// runtime's one way to copy a state; user code never needs to. It must be deep
// enough that updating the copy in place never writes the source — compute
// functions update the state they are handed, so a shallow clone is a
// cross-lane data race, not a slow path. It must not write its argument and
// must be safe to call concurrently on the same state: the engine's lanes
// clone the run's initial state at once.
type CloneFunc[S any] func(S) S

// MatchFunc is doesSpecStateMatchAny: whether a speculative state is
// acceptable given the set of original states produced so far.
type MatchFunc[S any] func(speculative S, originals []S) bool

// Protocol selects how the runtime satisfies a state dependence
// speculatively; see the core engine's protocols.
type Protocol = core.Protocol

// The available speculation protocols: the paper's auxiliary-code
// validation (the zero value) and deterministic slot reservations for
// dependences whose invocations touch declared disjoint state slots.
const (
	ProtocolAux          = core.ProtocolAux
	ProtocolReservations = core.ProtocolReservations
)

// ParseProtocol maps a protocol name ("aux", "reservations") to its
// Protocol value; ok is false for an unknown name.
func ParseProtocol(s string) (p Protocol, ok bool) { return core.ParseProtocol(s) }

// ReserveOps is the slot-reservation contract a dependence attaches with
// SetReserve: slot count, per-invocation footprint, slot-wise merge, the
// optional footprint-only clone, and the optional Touched oracle hook used
// by Options.FootprintCheck. With CloneSlots set an invocation that writes
// through a reference inside a slot outside its footprint writes committed
// state; only Options.FootprintCheck (which runs on whole-state clones)
// catches it before it commits.
type ReserveOps[I, S any] struct {
	// NumSlots is the number of state slots given the initial state.
	NumSlots func(initial S) int
	// Footprint returns the slots one invocation may read or write; it
	// must over-approximate the compute's accesses (statsvet -footprints
	// proves this for DSL-declared dependences).
	Footprint func(in I, initial S) []int
	// Merge copies the given slots from src into dst and returns dst.
	// It must not mutate src, and with CloneSlots set it must replace
	// dst's slots rather than write through them.
	Merge func(dst, src S, slots []int) S
	// CloneSlots optionally returns a state with deep copies of the given
	// slots of s and every other slot shared read-only with s; winning
	// invocations then run from it instead of a whole-state clone.
	CloneSlots func(s S, slots []int) S
	// Touched optionally reports the slots that differ between two
	// states — the runtime footprint oracle of Options.FootprintCheck.
	Touched func(before, after S) []int
}

// Options configures one execution; every field is a state-space dimension
// the autotuner can set (§3.3).
type Options struct {
	// UseAux enables speculation; false is the conventional baseline.
	UseAux bool
	// Protocol selects the speculation protocol; the zero value is the
	// paper's auxiliary-code validation. ProtocolReservations requires
	// SetReserve.
	Protocol Protocol
	// FootprintCheck enables the runtime footprint oracle under
	// ProtocolReservations: state slots the compute actually touched are
	// cross-checked against the declared footprint before commit, and a
	// lying footprint squashes the group and falls back sequentially.
	FootprintCheck bool
	// GroupSize is the input-group cardinality the runtime overlaps.
	GroupSize int
	// Window is how many previous inputs the auxiliary code consumes.
	Window int
	// RedoMax bounds re-executions of the original producer per
	// validation.
	RedoMax int
	// Rollback is how many inputs a re-execution goes back.
	Rollback int
	// Workers is the number of lanes a run executes groups on, the calling
	// goroutine included; unattached, the lanes beyond the caller's run on
	// the process pool, grown to at least Workers − 1 workers. Unset, it is
	// the attached Runtime's width plus the caller, or 1 unattached.
	Workers int
	// Seed fixes the run's randomness; runs with equal seeds and
	// options are reproducible.
	Seed uint64
	// GroupTimeout bounds one speculative group's wall-clock execution;
	// a lane exceeding it is squashed like a validation mismatch and its
	// inputs reprocessed sequentially. Zero disables the deadline.
	GroupTimeout time.Duration
	// Breaker, when non-nil, gates speculation with a sliding-window
	// abort-rate circuit breaker shared across runs (see NewBreaker): the
	// engine's core.Admission, implemented by telemetry.Breaker.
	Breaker *Breaker
}

// RunStats reports what the runtime did: group counts, speculative commits,
// re-executions, aborts, and work accounting.
type RunStats = core.Stats

// StateDependence makes the Figure 4 pattern explicit to the runtime
// (Figure 9). Create one with NewStateDependence, optionally attach
// auxiliary code and state methods, Configure it, then Start and Join.
type StateDependence[I, S, O any] struct {
	inputs  []I
	initial S
	compute ComputeFunc[I, S, O]
	aux     AuxFunc[I, S]
	clone   CloneFunc[S]
	match   MatchFunc[S]
	reserve *ReserveOps[I, S]
	opts    Options
	// sharedPool, when set by Attach, supplies the Runtime's worker pool
	// instead of the process pool; observer is the Runtime's
	// observability sink, set alongside it.
	sharedPool *pool.Pool
	observer   *obs.Observer

	done    chan struct{}
	outputs []O
	final   S
	stats   RunStats
	started bool
}

// NewStateDependence builds a state dependence over the given inputs,
// initial state, and compute target. By default states are copied by value
// (suitable for value-type states); attach a deep clone with SetStateOps
// when the state contains references.
func NewStateDependence[I, S, O any](inputs []I, initial S, compute ComputeFunc[I, S, O]) *StateDependence[I, S, O] {
	if compute == nil {
		panic("stats: nil compute function")
	}
	return &StateDependence[I, S, O]{
		inputs:  inputs,
		initial: initial,
		compute: compute,
		clone:   func(s S) S { return s },
	}
}

// SetAuxiliary attaches the auxiliary code. Without it, the dependence is
// always satisfied conventionally.
func (sd *StateDependence[I, S, O]) SetAuxiliary(aux AuxFunc[I, S]) *StateDependence[I, S, O] {
	sd.aux = aux
	return sd
}

// SetStateOps attaches the state privatization method and the acceptance
// method. A nil match accepts speculative states by construction (the
// paper's swaptions/streamcluster/streamclassifier cases).
func (sd *StateDependence[I, S, O]) SetStateOps(clone CloneFunc[S], match MatchFunc[S]) *StateDependence[I, S, O] {
	if clone != nil {
		sd.clone = clone
	}
	sd.match = match
	return sd
}

// SetReserve attaches the slot-reservation contract used under
// Options.Protocol == ProtocolReservations. Without it, reservations
// treat the whole state as a single slot (fully serialized commits).
func (sd *StateDependence[I, S, O]) SetReserve(r ReserveOps[I, S]) *StateDependence[I, S, O] {
	sd.reserve = &r
	return sd
}

// Configure sets the execution options.
func (sd *StateDependence[I, S, O]) Configure(o Options) *StateDependence[I, S, O] {
	sd.opts = o
	return sd
}

// ErrAlreadyStarted is returned by Start when called twice.
var ErrAlreadyStarted = errors.New("stats: state dependence already started")

// Start begins the execution model of §3.1 in parallel with the invoking
// goroutine (the start() of Figure 9).
func (sd *StateDependence[I, S, O]) Start() error {
	if sd.started {
		return ErrAlreadyStarted
	}
	sd.started = true
	sd.done = make(chan struct{})
	go func() {
		defer close(sd.done)
		sd.outputs, sd.final, sd.stats = sd.run()
	}()
	return nil
}

// Join waits until all inputs are correctly processed (the join() of
// Figure 9) and returns the outputs in input order, the final state, and
// the run statistics. Calling Join without Start runs synchronously.
// Further Join/Run calls return the completed run's results; a dependence
// executes its inputs once.
func (sd *StateDependence[I, S, O]) Join() ([]O, S, RunStats) {
	if !sd.started {
		sd.outputs, sd.final, sd.stats = sd.run()
		sd.started = true
		return sd.outputs, sd.final, sd.stats
	}
	// done is nil when the first Join ran synchronously (no Start);
	// receiving from it would block forever instead of returning the
	// already-computed results.
	if sd.done != nil {
		<-sd.done
	}
	return sd.outputs, sd.final, sd.stats
}

// Run executes synchronously: Start + Join.
func (sd *StateDependence[I, S, O]) Run() ([]O, S, RunStats) {
	return sd.Join()
}

func (sd *StateDependence[I, S, O]) run() ([]O, S, RunStats) {
	return sd.dep().Run(sd.inputs, sd.initial, sd.coreOptions())
}

// dep lowers the SDI's functions to an engine dependence, afresh on every
// run: the engine recycles its run scratch per instantiation, so a fresh
// Dependence runs as warm as a reused one.
func (sd *StateDependence[I, S, O]) dep() *core.Dependence[I, S, O] {
	d := core.New(core.Compute[I, S, O](sd.compute), core.Aux[I, S](sd.aux), core.StateOps[S]{
		Clone:    sd.clone,
		MatchAny: sd.match,
	})
	if sd.reserve != nil {
		// The facade's ReserveOps mirrors the engine's field for field, so
		// a hook added to one and not the other fails to compile here.
		d = d.WithReserve(core.ReserveOps[I, S](*sd.reserve))
	}
	return d
}

// coreOptions lowers the configured Options plus the Runtime attachment to
// engine options — the single SDI→engine mapping, so every run entry point
// (Run, RunStream, StartStream, RunChecked) threads new fields identically.
func (sd *StateDependence[I, S, O]) coreOptions() core.Options {
	o := sd.opts
	opts := core.Options{
		UseAux:         o.UseAux,
		Protocol:       o.Protocol,
		FootprintCheck: o.FootprintCheck,
		GroupSize:      o.GroupSize,
		Window:         o.Window,
		RedoMax:        o.RedoMax,
		Rollback:       o.Rollback,
		Workers:        o.Workers,
		Seed:           o.Seed,
		GroupTimeout:   o.GroupTimeout,
		Pool:           sd.sharedPool,
		Obs:            sd.observer,
	}
	if o.Breaker != nil {
		// A nil *Breaker in the interface would be a non-nil Admission.
		opts.Breaker = o.Breaker
	}
	return opts
}
