// Package workload defines the interface the seven benchmark reproductions
// implement (§4.2): the six STATS targets — bodytrack, fluidanimate,
// swaptions, streamcluster, streamclassifier, facedet — plus canneal, the
// benchmark the paper includes only to show that STATS statically rejects
// it (its input count is unknown before the first invocation).
//
// Each workload exposes two complementary faces:
//
//   - Real execution: the actual nondeterministic computation, runnable
//     sequentially (the out-of-the-box program), through the STATS core
//     engine (speculative execution with auxiliary code), or in a
//     quality-boosted mode (Fig. 16). These feed the output-variability,
//     quality, and speculation-behaviour experiments.
//
//   - A cost model: the work shape of the computation (per-invocation work,
//     inner parallel width, serial fractions, auxiliary-code cost, expected
//     speculation outcomes), which the task-graph generator turns into
//     platform-simulator graphs for the thread-sweep experiments
//     (Figs. 3, 12-15).
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tradeoff"
)

// SpecOptions selects a point of the per-workload state space for a real or
// simulated run: the engine parameters of §3.1 plus the auxiliary-code
// tradeoff indices.
type SpecOptions struct {
	// UseAux enables satisfying the state dependence speculatively (with
	// auxiliary code under core.ProtocolAux, with slot reservations under
	// core.ProtocolReservations).
	UseAux bool
	// Protocol selects the engine's speculation protocol; the zero value
	// is the paper's aux-state speculation.
	Protocol core.Protocol
	// GroupSize, Window, RedoMax and Rollback are the engine options of
	// core.Options (G, k, R, W).
	GroupSize int
	Window    int
	RedoMax   int
	Rollback  int
	// Workers is the number of lanes the real engine run executes groups
	// on, the calling goroutine included; a private pool is Workers − 1 wide.
	Workers int
	// TradeoffIdx are the auxiliary-code tradeoff indices, aligned with
	// Desc().Tradeoffs. nil means every tradeoff at its default.
	TradeoffIdx []int64
	// BadTraining selects the §4.6 non-representative input variant.
	BadTraining bool
	// Obs, when non-nil, receives the engine's speculation event log and
	// metrics for real RunSTATS executions (see internal/obs); nil runs
	// unobserved at ~zero cost.
	Obs *obs.Observer
	// Sched, when non-nil, routes the engine's nondeterministic decision
	// points through a controlled scheduler (internal/sched) for real
	// RunSTATS executions — systematic exploration and trace replay.
	Sched sched.Controller
	// FootprintCheck enables the runtime footprint oracle under
	// core.ProtocolReservations; see core.Options.FootprintCheck.
	FootprintCheck bool
}

// CoreOptions lowers the engine-relevant fields of o (plus the run seed)
// to core.Options — the single place the SpecOptions→engine mapping
// lives, so every workload's RunSTATS threads new engine options (like
// the observability sink) identically.
func (o SpecOptions) CoreOptions(seed uint64) core.Options {
	return core.Options{
		UseAux:         o.UseAux,
		Protocol:       o.Protocol,
		GroupSize:      o.GroupSize,
		Window:         o.Window,
		RedoMax:        o.RedoMax,
		Rollback:       o.Rollback,
		Workers:        o.Workers,
		Seed:           seed,
		Obs:            o.Obs,
		Sched:          o.Sched,
		FootprintCheck: o.FootprintCheck,
	}
}

// Tradeoff returns the effective index of tradeoff t under the options,
// defaulting when TradeoffIdx does not set it.
func (o SpecOptions) Tradeoff(ts []tradeoff.T, t int) int64 {
	if t < 0 || t >= len(ts) {
		panic(fmt.Sprintf("workload: tradeoff %d out of range", t))
	}
	if o.TradeoffIdx == nil || t >= len(o.TradeoffIdx) {
		return ts[t].Opts.DefaultIndex()
	}
	idx := o.TradeoffIdx[t]
	if idx < 0 || idx >= ts[t].Opts.MaxIndex() {
		panic(fmt.Sprintf("workload: tradeoff %s index %d out of range", ts[t].Name, idx))
	}
	return idx
}

// Value returns the setting of tradeoff t a workload resolves its
// parameters from: the default when defaults is set (the original
// program's, whatever o selects), else the one at o's effective index.
func (o SpecOptions) Value(ts []tradeoff.T, t int, defaults bool) any {
	idx := ts[t].Opts.DefaultIndex()
	if !defaults {
		idx = o.Tradeoff(ts, t)
	}
	return ts[t].Opts.Value(idx)
}

// Triangulate is the triangulating acceptance of §4.2 as a MatchAny ("if the
// body positions encoded in S' are between two original states, then we
// accept and commit S'"): a speculative state is accepted when, for some
// original i, its distance to i is within some other original's distance to
// i plus tol. dist is the program's state distance; tol is how strict the
// match is, the developer's choice (§3.3).
func Triangulate[S any](dist func(a, b S) float64, tol float64) func(spec S, originals []S) bool {
	return func(spec S, originals []S) bool {
		for i := range originals {
			di := dist(spec, originals[i])
			for j := range originals {
				if i != j && di <= dist(originals[j], originals[i])+tol {
					return true
				}
			}
		}
		return false
	}
}

// Descriptor is the workload's static description, including the Table 1
// developer-effort numbers from the paper.
type Descriptor struct {
	Name string
	// Declaration is the program's SDI/TI source (§3.4): the <Name>.stats
	// file its package embeds, which the compilers read and the package's
	// tests hold equal to the fields below and to the program.
	Declaration string
	// OriginalLOC is the benchmark's original line count (Table 1).
	OriginalLOC int
	// NumDeps is the number of state dependences identified.
	NumDeps int
	// Tradeoffs lists the encoded tradeoffs in payoff order — the order
	// of Table 1's per-tradeoff columns, which Fig. 18's sweep follows.
	// Thread-count tradeoffs ("which all benchmarks naturally have") are
	// the trailing entries.
	Tradeoffs []tradeoff.T
	// TradeoffLOC is the (modified, added) line counts per tradeoff from
	// Table 1.
	TradeoffLOC [][2]int
	// ComparisonLOC is the state-comparison method's line count.
	ComparisonLOC int
	// ScalarReductionState marks dependences whose state updates are
	// scalar reductions (variable = variable op value) — the only form
	// ALTER-class systems can exploit (§4.4: swaptions' "producer and
	// consumer are single instructions and the state (a register) is
	// implicitly cloned").
	ScalarReductionState bool
	// SafeToBreak marks dependences QuickStep/HELIX-UP-class systems can
	// break without exceeding the original output variability (§4.4:
	// they "improved performance only for swaptions").
	SafeToBreak bool
	// SupportsSTATS reports whether STATS can target the workload;
	// RejectReason explains a false value (canneal: the number of inputs
	// is not known before the first invocation of the pattern).
	SupportsSTATS bool
	RejectReason  string
	// VariabilitySource is the Fig. 2 categorization: "race" for output
	// variability due to race conditions, "prvg" for random generators.
	VariabilitySource string
}

// Result is a workload output that can measure its domain-specific distance
// to a reference output (0 = identical; the §4.2 metrics).
type Result interface {
	Distance(ref Result) float64
}

// Model is a workload's cost shape at a given input size and configuration,
// consumed by the task-graph generator.
type Model struct {
	// NumInputs is the length of the state-dependence input chain.
	NumInputs int
	// InvocationWork is the work of one computeOutput invocation at the
	// selected tradeoffs (default tradeoffs outside auxiliary code).
	InvocationWork float64
	// AuxWork is the work of one auxiliary-code execution at the selected
	// aux tradeoffs and window.
	AuxWork float64
	// InnerWidth and InnerSerialFrac describe the original program's TLP
	// inside one invocation: InnerWidth parallel tasks covering
	// (1-InnerSerialFrac) of the work, the rest serial.
	InnerWidth      int
	InnerSerialFrac float64
	// SyncWork is the per-invocation synchronization overhead the
	// original parallelization pays (bodytrack's "more frequent
	// inter-thread synchronizations").
	SyncWork float64
	// ValidateWork is the cost of one state comparison.
	ValidateWork float64
	// OuterParallel marks workloads whose original TLP is across
	// independent outer units rather than inside an invocation
	// (swaptions: one unit per swaption).
	OuterParallel bool
	// OuterTasks is the number of independent outer units when
	// OuterParallel is set.
	OuterTasks int
	// MatchProb is the probability that a speculative state is accepted
	// at a group boundary on the first try; RedoGain is the additional
	// acceptance probability contributed by each re-execution.
	MatchProb float64
	RedoGain  float64
}

// Workload is one benchmark reproduction.
type Workload interface {
	// Desc returns the static description.
	Desc() Descriptor
	// RunOriginal executes the out-of-the-box nondeterministic program
	// sequentially at the given input size.
	RunOriginal(seed uint64, size int) Result
	// RunOracle executes the quality-maximizing configuration used as
	// the §4.2 oracle. It is deterministic.
	RunOracle(size int) Result
	// RunSTATS executes through the core engine under the given options,
	// returning the output and the engine statistics.
	RunSTATS(seed uint64, size int, o SpecOptions) (Result, core.Stats)
	// RunBoosted spends factor× more quality-directed work (Fig. 16:
	// "spend the saved time to iterate more over the same dataset").
	RunBoosted(seed uint64, size int, factor float64) Result
	// CostModel returns the workload's cost shape under the options.
	CostModel(size int, o SpecOptions) Model
}

// NativeSize is the conventional "native input" size used by the
// evaluation harness; workloads interpret it in their own units (frames,
// points, swaptions × blocks, time steps).
const NativeSize = 64

// SmallSize is used where many repeated real runs are needed (output
// variability, autotuner profiling in tests).
const SmallSize = 16
