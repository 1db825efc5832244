// Package fluidanimate reproduces the PARSEC fluidanimate benchmark (§4.2):
// an SPH-style fluid simulation advanced in time frames. The state — the
// positions and velocities of the fluid's particles — is updated by every
// frame, which is the state dependence.
//
// The paper includes fluidanimate deliberately to probe STATS's limits
// (§4.8): the fluid's condition at instant i requires the simulation of
// *all* previous instants (the Navier-Stokes equations do not forget), so
// auxiliary code built from a window of recent inputs cannot reproduce the
// state, speculation always aborts at validation, and the autotuner learns
// to satisfy this dependence conventionally.
//
// Tradeoffs (§4.2): the version of sqrt (different accuracies), the data
// types of three simulation variables, and the x, y, z dimensions of the
// per-thread prism (which shape the original parallelization's cost, not
// the physics). The state comparison works like bodytrack's with the
// average Euclidean distance among particle positions.
package fluidanimate

import (
	"math"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
)

// numParticles is the fluid's particle count (small: the real runs feed
// quality experiments, not performance ones).
const numParticles = 48

// boxSize is the simulation cube's edge length.
const boxSize = 10.0

// smoothing is the SPH kernel radius.
const smoothing = 2.0

// dt is the integration step.
const dt = 0.05

// Step is one input: a time frame with a small external impulse (stirring),
// so inputs genuinely carry information.
type Step struct {
	Index   int
	Impulse mathx.Vec3
}

// State is the fluid condition: particle positions and velocities.
type State struct {
	Pos []mathx.Vec3
	Vel []mathx.Vec3
}

func cloneState(s State) State {
	c := State{Pos: make([]mathx.Vec3, len(s.Pos)), Vel: make([]mathx.Vec3, len(s.Vel))}
	copy(c.Pos, s.Pos)
	copy(c.Vel, s.Vel)
	return c
}

// stateDistance is the comparison distance: average Euclidean distance
// among the particle positions.
func stateDistance(a, b State) float64 {
	return mathx.AvgEuclidean3(a.Pos, b.Pos)
}

// Result is the final fluid condition; its Distance is the average
// Euclidean distance between particle positions (§4.2).
type Result struct {
	Final []mathx.Vec3
}

// Distance implements workload.Result.
func (r Result) Distance(ref workload.Result) float64 {
	return quality.AvgParticleDistance(r.Final, ref.(Result).Final)
}

// sqrtVersion names one of the sqrt implementations the function tradeoff
// selects among.
type sqrtVersion string

const (
	sqrtExact  sqrtVersion = "exact"
	sqrtNewton sqrtVersion = "newton2"
	sqrtCoarse sqrtVersion = "newton1"
)

// apply evaluates the selected sqrt implementation.
func (v sqrtVersion) apply(x float64) float64 {
	switch v {
	case sqrtExact:
		return math.Sqrt(x)
	case sqrtNewton:
		return newtonSqrt(x, 2)
	default:
		return newtonSqrt(x, 1)
	}
}

// cost returns the implementation's relative compute cost.
func (v sqrtVersion) cost() float64 {
	switch v {
	case sqrtExact:
		return 1.0
	case sqrtNewton:
		return 0.8
	default:
		return 0.6
	}
}

func newtonSqrt(x float64, iters int) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	if g > 1 {
		g = x / 2
	}
	for i := 0; i < iters; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

// params resolve the seven algorithmic tradeoffs.
type params struct {
	sqrt    sqrtVersion
	density tradeoff.Precision
	force   tradeoff.Precision
	vel     tradeoff.Precision
	prism   [3]int
}

// W is the fluidanimate workload.
type W struct{}

// New returns the workload.
func New() *W { return &W{} }

// Desc implements workload.Workload with Table 1's fluidanimate row.
func (*W) Desc() workload.Descriptor {
	return workload.Descriptor{
		Name:        "fluidanimate",
		OriginalLOC: 4350,
		NumDeps:     1,
		Tradeoffs: []tradeoff.T{
			tradeoff.New("SqrtVersion", tradeoff.Function, tradeoff.Enum{
				Values: []any{sqrtCoarse, sqrtNewton, sqrtExact}, Default: 2,
			}),
			tradeoff.New("DensityPrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("ForcePrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("VelocityPrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("PrismX", tradeoff.Constant, tradeoff.IntRange{Lo: 1, Hi: 4, Default: 1}),
			tradeoff.New("PrismY", tradeoff.Constant, tradeoff.IntRange{Lo: 1, Hi: 4, Default: 1}),
			tradeoff.New("PrismZ", tradeoff.Constant, tradeoff.IntRange{Lo: 1, Hi: 4, Default: 1}),
		},
		TradeoffLOC: [][2]int{
			{5, 10}, {5, 10}, {100, 130}, {0, 10}, {0, 30}, {0, 10}, {0, 15}, {0, 10}, {0, 10},
		},
		ComparisonLOC:     5,
		SupportsSTATS:     true, // targetable, but its aux code always aborts
		VariabilitySource: "race",
	}
}

func (w *W) resolve(o workload.SpecOptions, defaults bool) params {
	ts := w.Desc().Tradeoffs
	return params{
		sqrt:    o.Value(ts, 0, defaults).(sqrtVersion),
		density: o.Value(ts, 1, defaults).(tradeoff.Precision),
		force:   o.Value(ts, 2, defaults).(tradeoff.Precision),
		vel:     o.Value(ts, 3, defaults).(tradeoff.Precision),
		prism: [3]int{
			int(o.Value(ts, 4, defaults).(int64)),
			int(o.Value(ts, 5, defaults).(int64)),
			int(o.Value(ts, 6, defaults).(int64)),
		},
	}
}

// GenSteps materializes the input frames with their stirring impulses.
func GenSteps(size int, badTraining bool) []Step {
	seed := uint64(0xF1D0)
	if badTraining {
		seed ^= 0xBAD
	}
	r := rng.New(seed)
	steps := make([]Step, size)
	for i := range steps {
		steps[i] = Step{
			Index: i,
			Impulse: mathx.Vec3{
				X: r.Norm() * 0.3,
				Y: r.Norm() * 0.3,
				Z: -0.5, // gravity-ish bias
			},
		}
	}
	return steps
}

// initialState places the particles in a block at rest.
func initialState() State {
	r := rng.New(0xF1D1)
	s := State{Pos: make([]mathx.Vec3, numParticles), Vel: make([]mathx.Vec3, numParticles)}
	for i := range s.Pos {
		s.Pos[i] = mathx.Vec3{
			X: r.Range(2, 8), Y: r.Range(4, 8), Z: r.Range(2, 8),
		}
	}
	return s
}

// simulateStep advances the fluid one frame: SPH density, pressure and
// viscosity forces, impulse, integration, wall collisions. The tiny
// randomized jitter models the accumulation-order races that make the real
// benchmark nondeterministic; jitterScale attenuates it (0 disables it —
// the oracle; <1 is the quality-boost mode averaging force evaluations).
func simulateStep(r *rng.Source, p params, s State, in Step, jitterScale float64) State {
	n := len(s.Pos)
	density := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d2 := s.Pos[i].Sub(s.Pos[j]).Dot(s.Pos[i].Sub(s.Pos[j]))
			if d2 < smoothing*smoothing {
				diff := smoothing*smoothing - d2
				density[i] += diff * diff
			}
		}
		density[i] = p.density.Quantize(density[i])
	}
	forces := make([]mathx.Vec3, n)
	for i := 0; i < n; i++ {
		var f mathx.Vec3
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			delta := s.Pos[i].Sub(s.Pos[j])
			d2 := delta.Dot(delta)
			if d2 >= smoothing*smoothing || d2 == 0 {
				continue
			}
			dist := p.sqrt.apply(d2)
			// Pressure-like repulsion plus viscosity damping.
			push := (smoothing - dist) / dist * 0.02 * (density[i] + density[j])
			f = f.Add(delta.Scale(push))
			f = f.Add(s.Vel[j].Sub(s.Vel[i]).Scale(0.01))
		}
		f = f.Add(in.Impulse)
		// Race-condition jitter: the order force contributions commit
		// in the parallel original varies run to run.
		f = f.Add(mathx.Vec3{X: r.Norm(), Y: r.Norm(), Z: r.Norm()}.Scale(0.002 * jitterScale))
		forces[i] = mathx.Vec3{
			X: p.force.Quantize(f.X), Y: p.force.Quantize(f.Y), Z: p.force.Quantize(f.Z),
		}
	}
	// The integration reads the old positions and velocities while it writes
	// the new ones: the second buffer is the algorithm, not a privatization,
	// so this step stays functional while the other programs update in place.
	next := cloneState(s)
	for i := 0; i < n; i++ {
		v := s.Vel[i].Add(forces[i].Scale(dt))
		v = mathx.Vec3{X: p.vel.Quantize(v.X), Y: p.vel.Quantize(v.Y), Z: p.vel.Quantize(v.Z)}
		pos := s.Pos[i].Add(v.Scale(dt))
		// Walls: clamp and reflect.
		if pos.X < 0 || pos.X > boxSize {
			v.X = -0.5 * v.X
		}
		if pos.Y < 0 || pos.Y > boxSize {
			v.Y = -0.5 * v.Y
		}
		if pos.Z < 0 || pos.Z > boxSize {
			v.Z = -0.5 * v.Z
		}
		next.Pos[i] = pos.Clamp(0, boxSize)
		next.Vel[i] = v
	}
	return next
}

// computeOutput advances the fluid one frame and emits the frame's mean
// particle position (the rendered output).
func computeOutput(p params) core.Compute[Step, State, mathx.Vec3] {
	return func(r *rng.Source, in Step, s State) (mathx.Vec3, State) {
		s = simulateStep(r, p, s, in, 1)
		var mean mathx.Vec3
		for _, pos := range s.Pos {
			mean = mean.Add(pos)
		}
		return mean.Scale(1 / float64(len(s.Pos))), s
	}
}

// auxCode is the doomed alternative producer: replay only the window's
// recent steps from the initial state. Because the fluid's condition
// depends on *all* previous steps, the speculative state it produces never
// matches an original state — exactly the paper's negative result. It starts
// from the private copy of the initial state the engine hands it.
func auxCode(p params) core.Aux[Step, State] {
	return func(r *rng.Source, s State, recent []Step) State {
		for _, in := range recent {
			s = simulateStep(r, p, s, in, 1)
		}
		return s
	}
}

func stateOps() core.StateOps[State] {
	return core.StateOps[State]{
		Clone: cloneState,
		MatchAny: func(spec State, originals []State) bool {
			for i := range originals {
				di := stateDistance(spec, originals[i])
				for j := range originals {
					if i == j {
						continue
					}
					if di <= stateDistance(originals[j], originals[i]) {
						return true
					}
				}
			}
			return false
		},
		// Acceptance triangulates a continuous particle-position
		// distance, so positions and velocities cannot enter the hash;
		// the particle count is the one structural feature every state
		// of a run shares (the auxiliary producer simulates the same
		// fluid, never resizes it). Within a run the prefilter always
		// falls through; a cross-run size mismatch would reject without
		// the O(particles) deep comparison.
		Fingerprint: func(s State) uint64 {
			return mathx.NewHash64().Int(len(s.Pos)).Sum()
		},
	}
}

// RunOriginal implements workload.Workload.
func (w *W) RunOriginal(seed uint64, size int) workload.Result {
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), 1, false)
}

func (w *W) run(seed uint64, size int, p params, noiseScale float64, badTraining bool) Result {
	steps := GenSteps(size, badTraining)
	r := rng.New(seed)
	s := initialState()
	for _, in := range steps {
		s = simulateStep(r.Split(), p, s, in, noiseScale)
	}
	return Result{Final: s.Pos}
}

// RunOracle implements workload.Workload: exact sqrt, double precision, no
// race jitter, fixed seed.
func (w *W) RunOracle(size int) workload.Result {
	p := params{sqrt: sqrtExact, density: tradeoff.Double, force: tradeoff.Double, vel: tradeoff.Double, prism: [3]int{2, 2, 2}}
	return w.run(0x0AC1E, size, p, 0, false)
}

// RunBoosted implements workload.Workload (Fig. 16): averaging factor×
// force evaluations attenuates the race jitter by sqrt(factor).
func (w *W) RunBoosted(seed uint64, size int, factor float64) workload.Result {
	if factor < 1 {
		factor = 1
	}
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), 1/math.Sqrt(factor), false)
}

// RunSTATS implements workload.Workload. Under core.ProtocolReservations
// the box is split into numFluids non-interacting sub-fluids advanced as
// a step-major flat chain with one state slot per sub-fluid (see
// splitDependence): the window-replay aux code is hopeless here (§4.8),
// but slot reservations need no aux code and the sub-fluids' disjoint
// footprints commit in the same round.
func (w *W) RunSTATS(seed uint64, size int, o workload.SpecOptions) (workload.Result, core.Stats) {
	def := w.resolve(o, true)
	if o.Protocol == core.ProtocolReservations {
		return runSplit(seed, size, def, o)
	}
	aux := w.resolve(o, false)
	steps := GenSteps(size, o.BadTraining)
	dep := core.New(computeOutput(def), auxCode(aux), stateOps())
	_, final, st := dep.Run(steps, initialState(), o.CoreOptions(seed))
	return Result{Final: final.Pos}, st
}

// numFluids is the slot count of the reservations formulation: the box
// is partitioned into this many non-interacting sub-fluids, each its own
// state slot.
const numFluids = 4

// FlatStep is one (frame, sub-fluid) cell of the step-major chain the
// reservations protocol simulates: sequential order walks the sub-fluids
// within a frame, so cells of the same frame touch disjoint slots.
type FlatStep struct {
	Step  Step
	Fluid int
}

// FlatSteps materializes the step-major chain over the frames.
func FlatSteps(steps []Step) []FlatStep {
	cells := make([]FlatStep, 0, len(steps)*numFluids)
	for _, in := range steps {
		for k := 0; k < numFluids; k++ {
			cells = append(cells, FlatStep{Step: in, Fluid: k})
		}
	}
	return cells
}

// subInitial places one sub-fluid's particles at rest, seeded per fluid.
func subInitial(k int) State {
	r := rng.New(0xF1D1 + uint64(k)*0x9E37)
	n := numParticles / numFluids
	s := State{Pos: make([]mathx.Vec3, n), Vel: make([]mathx.Vec3, n)}
	for i := range s.Pos {
		s.Pos[i] = mathx.Vec3{
			X: r.Range(2, 8), Y: r.Range(4, 8), Z: r.Range(2, 8),
		}
	}
	return s
}

// statesEqual compares two sub-fluid states structurally (the Touched
// oracle hook needs a value diff).
func statesEqual(a, b State) bool {
	if len(a.Pos) != len(b.Pos) || len(a.Vel) != len(b.Vel) {
		return false
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			return false
		}
	}
	for i := range a.Vel {
		if a.Vel[i] != b.Vel[i] {
			return false
		}
	}
	return true
}

// splitDependence builds the reservation-ready dependence: state is one
// sub-fluid per slot and a cell's footprint is exactly its fluid's slot.
func splitDependence(p params) *core.Dependence[FlatStep, []State, mathx.Vec3] {
	compute := func(r *rng.Source, in FlatStep, st []State) (mathx.Vec3, []State) {
		s := simulateStep(r, p, st[in.Fluid], in.Step, 1)
		st[in.Fluid] = s
		var mean mathx.Vec3
		for _, pos := range s.Pos {
			mean = mean.Add(pos)
		}
		return mean.Scale(1 / float64(len(s.Pos))), st
	}
	ops, reserve := core.SlotOps(func(in FlatStep) []int { return []int{in.Fluid} }, cloneState, statesEqual)
	return core.New[FlatStep, []State, mathx.Vec3](compute, nil, ops).WithReserve(reserve)
}

// runSplit advances the sub-fluids through one reservations engine run
// over the step-major chain; the final particle set is the concatenation
// of the sub-fluids'.
func runSplit(seed uint64, size int, p params, o workload.SpecOptions) (workload.Result, core.Stats) {
	steps := GenSteps(size, o.BadTraining)
	init := make([]State, numFluids)
	for k := range init {
		init[k] = subInitial(k)
	}
	dep := splitDependence(p)
	_, final, st := dep.Run(FlatSteps(steps), init, o.CoreOptions(seed))
	var all []mathx.Vec3
	for _, s := range final {
		all = append(all, s.Pos...)
	}
	return Result{Final: all}, st
}

// CostModel implements workload.Workload. The original program parallelizes
// well over spatial prisms (wide, small serial fraction); speculation never
// survives validation (MatchProb 0), so STATS's best configuration is the
// original TLP — the Fig. 12d flat line.
func (w *W) CostModel(size int, o workload.SpecOptions) workload.Model {
	def := w.resolve(o, true)
	aux := w.resolve(o, false)
	unit := func(p params) float64 {
		prec := (p.density.CostFactor() + p.force.CostFactor() + p.vel.CostFactor()) / 3
		return prec * p.sqrt.cost()
	}
	win := o.Window
	if win < 1 {
		win = 1
	}
	prismCells := def.prism[0] * def.prism[1] * def.prism[2]
	width := 8 * prismCells
	if width > 64 {
		width = 64
	}
	return workload.Model{
		NumInputs:       size,
		InvocationWork:  unit(def),
		AuxWork:         float64(win) * unit(aux),
		InnerWidth:      width,
		InnerSerialFrac: 0.03,
		SyncWork:        0.02,
		ValidateWork:    0.01,
		MatchProb:       0, // the aux state never matches (§4.8)
		RedoGain:        0,
	}
}
