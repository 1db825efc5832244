// Package profiler measures configurations for the autotuner (§3.2: "The
// profiler runs the binary generated by the back-end using the provided
// training inputs, measuring its energy consumption and performance").
//
// A measurement lowers the workload's cost model through the task-graph
// generator, schedules it on the simulated platform at the experiment's
// thread count, and integrates the energy model over the occupancy trace.
// The profiler also owns the state-space construction and the decoding of
// a space configuration into engine options — the glue between the
// autotuner's index vectors and the runtime's parameters. The back-end
// instantiates a point of the same kind of space (ModuleSpace) and decodes
// each dependence through the same DecodeDependence.
package profiler

import (
	"fmt"
	"strings"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/platform"
	"repro/internal/space"
	"repro/internal/taskgen"
	"repro/internal/tradeoff"
	"repro/internal/workload"
)

// Goal selects the optimization objective (§4.3, "Saving energy": the
// autotuner "minimizes energy rather than time leading to a different
// binary").
type Goal int

const (
	// Time minimizes simulated makespan.
	Time Goal = iota
	// Energy minimizes simulated system energy.
	Energy
)

// String returns the goal's name.
func (g Goal) String() string {
	if g == Energy {
		return "energy"
	}
	return "time"
}

// Measurement is one profiled configuration.
type Measurement struct {
	TimeSeconds float64
	EnergyJ     float64
	Sim         platform.Result
}

// P profiles one workload on one platform at one thread count.
type P struct {
	Machine platform.Machine
	Threads int
	Energy  energy.Model
	W       workload.Workload
	Size    int
	Mode    taskgen.Mode
	// GraphSeed drives speculation-outcome sampling; fixed per
	// experiment so measurements are reproducible.
	GraphSeed uint64
	// Training marks profiling runs on training inputs. The §4.6
	// non-representative-input distortion itself lives in each
	// workload's CostModel (triggered by SpecOptions.BadTraining).
	Training bool
}

// windowValues, redoValues, rollbackValues and groupValues are the
// concrete per-dependence dimension values the state space enumerates.
var (
	windowValues   = []int64{0, 1, 2, 3, 4, 6, 8}
	redoValues     = []int64{0, 1, 2, 3}
	rollbackValues = []int64{1, 2, 4}
	groupValues    = []int64{2, 4, 8, 16, 32}
)

// auxPrefix prefixes the name of a tradeoff's dimension.
const auxPrefix = "aux."

// BuildSpace constructs the state space over the given auxiliary-code
// tradeoffs: one dimension per tradeoff, the standard per-dependence
// dimensions, and the global original-TLP thread split (§3.3, "The state
// space").
func BuildSpace(tradeoffs []tradeoff.T, maxThreads int64) *space.Space {
	s := space.New()
	for _, t := range tradeoffs {
		s.Add(space.Dimension{
			Name:    auxPrefix + t.Name,
			Size:    t.Opts.MaxIndex(),
			Default: t.Opts.DefaultIndex(),
		})
	}
	s.AddDependence("dep", windowValues, redoValues, rollbackValues, groupValues)
	s.AddThreadSplit(maxThreads)
	return s
}

// SeedConfigs returns sensible starting configurations for the autotuner:
// speculation enabled at a few group sizes with a generous window and redo
// budget, everything else at defaults. They correspond to what a developer
// would try first and keep the search from stalling in rugged landscapes.
func SeedConfigs(s *space.Space) []space.Config {
	var out []space.Config
	for _, groupIdx := range []int64{2, 3, 4} { // values 8, 16, 32
		c := s.Default()
		s.Set(c, "dep.aux", 1)
		s.Set(c, "dep.window", 4) // value 4
		s.Set(c, "dep.redo", 3)   // value 3
		s.Set(c, "dep.rollback", 1)
		s.Set(c, "dep.group", groupIdx)
		out = append(out, c)
	}
	return out
}

// ModuleSpace builds the state space the back-end instantiates over an IR
// module (§3.4): dimension i is aux.<name> of the module's tradeoff i, sized
// and defaulted by its metadata, and each dependence then adds the block
// BuildSpace adds for the tuner's one shared dependence, under its own name.
// A dependence declared twice is an error: the front-end accepts one, and
// only the vet gate refuses it.
func ModuleSpace(m *ir.Module) (*space.Space, error) {
	s := space.New()
	for _, t := range m.Tradeoffs {
		s.Add(space.Dimension{Name: auxPrefix + t.Name, Size: t.Size, Default: t.Default})
	}
	for _, d := range m.Deps {
		if _, dup := s.Find(d.Name + ".aux"); dup {
			return nil, fmt.Errorf("profiler: state dependence %s declared twice", d.Name)
		}
		s.AddDependence(d.Name, windowValues, redoValues, rollbackValues, groupValues)
	}
	return s, nil
}

// DecodeDependence reads dependence dep's block of c (the dimensions
// space.AddDependence names dep.aux, dep.window, dep.redo, dep.rollback and
// dep.group) into engine options; a dimension s lacks, and every other
// field, stays zero. It is the one reader of a dependence block: Decode
// calls it for the tuner's shared dependence and backend.Compile for each
// dependence of a module.
func DecodeDependence(s *space.Space, c space.Config, dep string) workload.SpecOptions {
	value := func(key string) int {
		v, _ := s.Lookup(c, dep+"."+key)
		return int(v)
	}
	return workload.SpecOptions{
		UseAux:    value("aux") == 1,
		GroupSize: value("group"),
		Window:    value("window"),
		RedoMax:   value("redo"),
		Rollback:  value("rollback"),
	}
}

// Decode maps a space configuration to the engine options plus the
// original-TLP thread allocation. TradeoffIdx holds the tradeoff
// dimensions' indices in the order BuildSpace added them.
func Decode(s *space.Space, c space.Config) (workload.SpecOptions, int) {
	o := DecodeDependence(s, c, "dep")
	for i, d := range s.Dims() {
		if strings.HasPrefix(d.Name, auxPrefix) {
			// Tradeoff dimensions are identity-valued: the value is the
			// tradeoff index itself.
			o.TradeoffIdx = append(o.TradeoffIdx, c[i])
		}
	}
	threads := 1
	if v, ok := s.Lookup(c, "threads.original"); ok {
		threads = int(v)
	}
	return o, threads
}

// DecodeObjective returns the autotuner objective over s that decodes each
// configuration and scores the decoded options with score.
func DecodeObjective(s *space.Space, score func(o workload.SpecOptions, threads int) float64) autotune.Objective {
	return func(c space.Config) float64 {
		return score(Decode(s, c))
	}
}

// Overhead attributes one real engine run's runtime overhead relative to
// its useful (committed) work. Wasted and Aux are fractions of committed
// invocations — together they are Table 1's "extra committed instructions".
type Overhead struct {
	// WastedFrac is (Invocations - UsefulInvocations) / UsefulInvocations:
	// squashed and re-executed work.
	WastedFrac float64
	// AuxFrac is the auxiliary-code work relative to useful work, with
	// each aux input weighted by auxRel (its cost relative to an original
	// invocation).
	AuxFrac float64
	// ExtraCommitted is WastedFrac + AuxFrac, the paper's Table 1 metric.
	ExtraCommitted float64
}

// AttributeOverhead computes the overhead breakdown for one run's engine
// statistics. auxRel is the per-input cost of auxiliary code relative to an
// original invocation (from the workload's cost model); pass 0 when the run
// used no auxiliary code.
func AttributeOverhead(st core.Stats, auxRel float64) Overhead {
	var o Overhead
	if st.UsefulInvocations > 0 {
		useful := float64(st.UsefulInvocations)
		o.WastedFrac = (float64(st.Invocations) - useful) / useful
		o.AuxFrac = float64(st.AuxInputs) * auxRel / useful
	}
	o.ExtraCommitted = o.WastedFrac + o.AuxFrac
	return o
}

// Measure profiles one option set. threadsOriginal caps the original-TLP
// width (the thread-split dimension); pass p.Threads for "no cap".
func (p *P) Measure(o workload.SpecOptions, threadsOriginal int) Measurement {
	m := p.W.CostModel(p.Size, o)
	if threadsOriginal > 0 && m.InnerWidth > threadsOriginal {
		m.InnerWidth = threadsOriginal
	}

	// Speculation outcomes are sampled; averaging a few realizations
	// keeps the autotuner from favouring configurations that merely got
	// lucky in a single draw (the paper runs each configuration "as many
	// times as necessary to achieve a tight confidence interval", §4.1).
	const realizations = 3
	var meas Measurement
	for k := 0; k < realizations; k++ {
		g := taskgen.Build(p.Mode, m, o, p.GraphSeed+uint64(k)*0x9E37)
		sim := platform.Simulate(p.Machine, g, p.Threads)
		meas.TimeSeconds += sim.Makespan / realizations
		meas.EnergyJ += p.Energy.Energy(sim) / realizations
		if k == 0 {
			meas.Sim = sim
		}
	}
	return meas
}

// Objective returns an autotuner objective over the given space for the
// given goal.
func (p *P) Objective(s *space.Space, goal Goal, badTraining bool) autotune.Objective {
	return DecodeObjective(s, func(o workload.SpecOptions, threads int) float64 {
		o.BadTraining = badTraining
		meas := p.Measure(o, threads)
		if goal == Energy {
			return meas.EnergyJ
		}
		return meas.TimeSeconds
	})
}
