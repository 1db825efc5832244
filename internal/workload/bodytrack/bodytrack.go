// Package bodytrack reproduces the paper's flagship benchmark (§2.2, §4.2):
// tracking a person's body through a stream of camera quadruples with an
// annealed particle filter. The analysis of quadruple i+1 consumes the body
// model produced by quadruple i — the state dependence that serializes the
// program. The computation is randomized (the annealing perturbations), so
// different runs produce slightly different, equally acceptable positions.
//
// The synthetic scene substitutes for the PARSEC camera streams: a body of
// eight parts follows a smooth 3-D trajectory; each frame carries noisy
// observations of the part positions (the fusion of the four cameras). The
// inputs are fixed per input seed — the same input across runs, as the
// paper requires — while the filter's randomness varies per run.
//
// Tradeoffs (§4.2): the number of simulated annealing layers, the data type
// (precision) of the annealing weight variable, and the number of particles.
// The auxiliary code re-localizes the body by running the same filter, at
// its own (cheaper) tradeoff settings, over the last few frames starting
// from the diffuse prior. The state comparison accepts a speculative state
// whose distance to an original state does not exceed the distance between
// two original states (sum of absolute body-part position differences).
package bodytrack

import (
	"math"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
)

// numParts is the number of tracked body parts.
const numParts = 8

// numCameras is the number of cameras observing the scene ("captured by
// four cameras that target the same space", §2.2).
const numCameras = 4

// Frame is one camera quadruple: per-camera noisy observations of every
// body part, plus their fusion (the per-part mean across cameras) that the
// filter's likelihood and the tests consume.
type Frame struct {
	// Cameras[c][j] is camera c's observation of part j. Each camera
	// carries its own calibration bias and noise.
	Cameras [numCameras][numParts]mathx.Vec3
	// Obs[j] is the fused observation of part j.
	Obs [numParts]mathx.Vec3
}

// particle is one hypothesis of the body pose.
type particle struct {
	pose   [numParts]mathx.Vec3
	weight float64
}

// State is the body model: the particle set (vector<Particle> in Figure 8).
type State struct {
	particles []particle
}

// meanPose returns the weighted mean pose of the particle set.
func (s State) meanPose() [numParts]mathx.Vec3 {
	var mean [numParts]mathx.Vec3
	total := 0.0
	for _, p := range s.particles {
		total += p.weight
	}
	if total == 0 {
		total = float64(len(s.particles))
		for _, p := range s.particles {
			for j := 0; j < numParts; j++ {
				mean[j] = mean[j].Add(p.pose[j])
			}
		}
	} else {
		for _, p := range s.particles {
			w := p.weight
			for j := 0; j < numParts; j++ {
				mean[j] = mean[j].Add(p.pose[j].Scale(w))
			}
		}
	}
	for j := 0; j < numParts; j++ {
		mean[j] = mean[j].Scale(1 / total)
	}
	return mean
}

// poseDistance is the state-comparison distance: "the sum of the absolute
// differences of every body part position between two states".
func poseDistance(a, b State) float64 {
	pa, pb := a.meanPose(), b.meanPose()
	sum := 0.0
	for j := 0; j < numParts; j++ {
		sum += math.Abs(pa[j].X-pb[j].X) + math.Abs(pa[j].Y-pb[j].Y) + math.Abs(pa[j].Z-pb[j].Z)
	}
	return sum
}

// Output is the per-frame body-part positions.
type Output struct {
	Positions [numParts]mathx.Vec3
}

// Result is the full tracking output; its Distance is the relative mean
// square error of the body-part vectors (§4.2).
type Result struct {
	Frames []Output
}

// Distance implements workload.Result.
func (r Result) Distance(ref workload.Result) float64 {
	o := ref.(Result)
	return quality.RelativeMSE(r.flatten(), o.flatten())
}

func (r Result) flatten() []float64 {
	out := make([]float64, 0, len(r.Frames)*numParts*3)
	for _, f := range r.Frames {
		for j := 0; j < numParts; j++ {
			out = append(out, f.Positions[j].X, f.Positions[j].Y, f.Positions[j].Z)
		}
	}
	return out
}

// params are the filter's algorithmic knobs, resolved from tradeoffs.
type params struct {
	layers    int
	precision tradeoff.Precision
	particles int
}

// W is the bodytrack workload.
type W struct{}

// New returns the workload.
func New() *W { return &W{} }

// Desc implements workload.Workload. LOC figures are Table 1's bodytrack
// row: tradeoffs in payoff order (annealing layers, data type, particles,
// then the two thread counts every benchmark naturally has).
func (*W) Desc() workload.Descriptor {
	return workload.Descriptor{
		Name:        "bodytrack",
		OriginalLOC: 16430,
		NumDeps:     1,
		Tradeoffs: []tradeoff.T{
			tradeoff.New("AnnealingLayers", tradeoff.Constant, tradeoff.IntRange{Lo: 1, Hi: 10, Default: 4}),
			tradeoff.New("WeightPrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("Particles", tradeoff.Constant, tradeoff.Enum{
				Values: []any{int64(16), int64(32), int64(64), int64(128), int64(256)}, Default: 3,
			}),
		},
		TradeoffLOC:       [][2]int{{60, 95}, {5, 10}, {0, 15}, {0, 10}, {0, 10}},
		ComparisonLOC:     19,
		SupportsSTATS:     true,
		VariabilitySource: "prvg",
	}
}

// resolve maps option tradeoff indices to filter parameters. defaults=true
// yields the original program's parameters regardless of the options.
func (w *W) resolve(o workload.SpecOptions, defaults bool) params {
	ts := w.Desc().Tradeoffs
	return params{
		layers:    int(o.Value(ts, 0, defaults).(int64)),
		precision: o.Value(ts, 1, defaults).(tradeoff.Precision),
		particles: int(o.Value(ts, 2, defaults).(int64)),
	}
}

// trueCenter returns the body center's ground-truth position at frame t.
// The badTraining variant (§4.6: "the subject does not move across
// quadruples") pins the body at the origin.
func trueCenter(t int, badTraining bool) mathx.Vec3 {
	if badTraining {
		return mathx.Vec3{}
	}
	ft := float64(t)
	return mathx.Vec3{
		X: 4 * math.Sin(0.12*ft),
		Y: 4 * math.Sin(0.09*ft),
		Z: 0.15 * ft,
	}
}

// partOffset returns body part j's fixed offset from the center.
func partOffset(j int) mathx.Vec3 {
	ang := 2 * math.Pi * float64(j) / numParts
	return mathx.Vec3{X: math.Cos(ang), Y: math.Sin(ang), Z: 0.3 * float64(j%3)}
}

// GenFrames materializes the input stream. The input seed is fixed per
// (size, badTraining) so every run sees the same input.
func GenFrames(size int, badTraining bool) []Frame {
	return genFrames(size, badTraining)
}

func genFrames(size int, badTraining bool) []Frame {
	seed := uint64(0xB0D7_2ACC)
	if badTraining {
		seed ^= 0xBAD
	}
	r := rng.New(seed)
	// Per-camera calibration biases, fixed for the whole stream.
	var bias [numCameras]mathx.Vec3
	for c := range bias {
		bias[c] = mathx.Vec3{X: r.Norm() * 0.03, Y: r.Norm() * 0.03, Z: r.Norm() * 0.03}
	}
	frames := make([]Frame, size)
	for t := range frames {
		center := trueCenter(t, badTraining)
		for j := 0; j < numParts; j++ {
			truth := center.Add(partOffset(j))
			var fused mathx.Vec3
			for c := 0; c < numCameras; c++ {
				obs := truth.Add(bias[c]).Add(mathx.Vec3{
					X: r.Norm() * 0.16, Y: r.Norm() * 0.16, Z: r.Norm() * 0.16,
				})
				frames[t].Cameras[c][j] = obs
				fused = fused.Add(obs)
			}
			frames[t].Obs[j] = fused.Scale(1.0 / numCameras)
		}
	}
	return frames
}

// initialState returns the diffuse prior particle set.
func initialState(p params, r *rng.Source) State {
	s := State{particles: make([]particle, p.particles)}
	for i := range s.particles {
		for j := 0; j < numParts; j++ {
			s.particles[i].pose[j] = mathx.Vec3{
				X: r.Norm() * 2, Y: r.Norm() * 2, Z: r.Norm() * 2,
			}.Add(partOffset(j))
		}
		s.particles[i].weight = 1 / float64(p.particles)
	}
	return s
}

// cloneState implements the SDI's operator= (deep state privatization).
func cloneState(s State) State {
	c := State{particles: make([]particle, len(s.particles))}
	copy(c.particles, s.particles)
	return c
}

// updateModel is computeOutput's core (updateModel in Figures 7/8): one
// annealed particle-filter step against a frame.
func updateModel(r *rng.Source, p params, st State, f Frame) State {
	// A 25 KB copy against a 0.8 ms invocation (0.3 %): updating in place
	// would buy nothing measurable, so this step stays functional while the
	// microsecond programs update the state they are handed.
	st = cloneState(st)
	// The particle count is a tradeoff; re-sample the set to the target
	// size if a (cheaper) auxiliary configuration narrows it.
	if len(st.particles) != p.particles {
		st = resizeParticles(st, p.particles, r)
	}
	n := len(st.particles)
	weights := make([]float64, n)
	for layer := p.layers; layer >= 1; layer-- {
		// Noise shrinks and weighting sharpens as annealing progresses
		// (higher layer index runs first). The body-part likelihood
		// factorizes, so each part anneals with its own resampling —
		// the per-part hierarchy of bodytrack's annealed filter.
		scale := 0.4 * math.Pow(0.7, float64(p.layers-layer))
		beta := 1.5 * float64(layer) / float64(p.layers)
		for j := 0; j < numParts; j++ {
			total := 0.0
			for i := range st.particles {
				st.particles[i].pose[j] = st.particles[i].pose[j].Add(mathx.Vec3{
					X: r.Norm() * scale, Y: r.Norm() * scale, Z: r.Norm() * scale,
				})
				// The likelihood multiplies the per-camera terms: the
				// product of exponentials is the exponential of the
				// mean squared camera residual.
				d := 0.0
				for c := 0; c < numCameras; c++ {
					diff := st.particles[i].pose[j].Sub(f.Cameras[c][j])
					d += diff.Dot(diff)
				}
				d /= numCameras
				// The weight variable's data type is a tradeoff.
				w := p.precision.Quantize(math.Exp(-d / beta))
				weights[i] = w
				total += w
			}
			if total <= 0 {
				for i := range weights {
					weights[i] = 1
				}
				total = float64(n)
			}
			resamplePart(st, j, weights, total, r)
		}
	}
	for i := range st.particles {
		st.particles[i].weight = 1 / float64(n)
	}
	return st
}

// resamplePart systematically resamples part j's positions in place by
// weight.
func resamplePart(st State, j int, weights []float64, total float64, r *rng.Source) {
	n := len(st.particles)
	picked := make([]mathx.Vec3, n)
	step := total / float64(n)
	u := r.Float64() * step
	cum := 0.0
	src := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)*step
		for cum+weights[src] < target && src < n-1 {
			cum += weights[src]
			src++
		}
		picked[i] = st.particles[src].pose[j]
	}
	for i := 0; i < n; i++ {
		st.particles[i].pose[j] = picked[i]
	}
}

// resizeParticles re-samples the set to n particles.
func resizeParticles(st State, n int, r *rng.Source) State {
	out := State{particles: make([]particle, n)}
	for i := 0; i < n; i++ {
		out.particles[i] = st.particles[r.Intn(len(st.particles))]
		out.particles[i].weight = 1 / float64(n)
	}
	return out
}

// computeOutput is the SDI compute target (Figure 8): update the model with
// the frame, emit the estimated positions.
func computeOutput(p params) core.Compute[Frame, State, Output] {
	return func(r *rng.Source, f Frame, s State) (Output, State) {
		s = updateModel(r, p, s, f)
		return Output{Positions: s.meanPose()}, s
	}
}

// auxCode is the auxiliary producer: re-detect the body from the recent
// frames and refine at the auxiliary tradeoff settings ("rather than
// blocking the analysis of i ... consume (only) a few previous quadruples",
// §2.2). Where a human is at quadruple i is nearly independent of where
// they were many quadruples ago, so a re-detection over the last k frames
// reproduces the original producer's state. It reads init only when the
// window is empty; the engine hands it a copy regardless — it cannot know
// which.
func auxCode(aux params) core.Aux[Frame, State] {
	return func(r *rng.Source, init State, recent []Frame) State {
		if len(recent) == 0 {
			// No inputs to consume: the best alternative producer is
			// S0 itself (re-sampled to the auxiliary particle count).
			return resizeParticles(init, aux.particles, r)
		}
		// Seed particles on the oldest recent frame's observations,
		// then refine through the remaining frames.
		s := State{particles: make([]particle, aux.particles)}
		for i := range s.particles {
			for j := 0; j < numParts; j++ {
				s.particles[i].pose[j] = recent[0].Obs[j].Add(mathx.Vec3{
					X: r.Norm() * 0.3, Y: r.Norm() * 0.3, Z: r.Norm() * 0.3,
				})
			}
			s.particles[i].weight = 1 / float64(aux.particles)
		}
		for _, f := range recent[1:] {
			s = updateModel(r, aux, s, f)
		}
		return s
	}
}

// stateOps wires the SDI state methods: deep clone and the triangulating
// acceptance method of §4.2 ("if the body positions encoded in S' are
// between two original states, then we accept and commit S'").
func stateOps() core.StateOps[State] {
	return core.StateOps[State]{
		Clone: cloneState,
		MatchAny: func(spec State, originals []State) bool {
			// Triangulating acceptance with a small tolerance — the
			// strictness is the developer's choice (§3.3). The distance
			// sums absolute differences over 24 coordinates, so 0.3 is
			// far below the observation noise.
			const tol = 0.3
			for i := range originals {
				di := poseDistance(spec, originals[i])
				for j := range originals {
					if i == j {
						continue
					}
					if di <= poseDistance(originals[j], originals[i])+tol {
						return true
					}
				}
			}
			return false
		},
		// Acceptance is a tolerance ball over a continuous pose distance
		// (and the auxiliary state may carry a different particle count
		// than the originals), so no continuous feature — nor the
		// particle count — survives an accepted pair. The only
		// acceptance-invariant feature is the fixed pose dimensionality:
		// the prefilter always falls through to the deep comparison,
		// which keeps the hash-first wiring and its hit counter live at
		// the cost of one probe.
		Fingerprint: func(State) uint64 {
			return mathx.NewHash64().Int(numParts).Sum()
		},
	}
}

// RunOriginal implements workload.Workload.
func (w *W) RunOriginal(seed uint64, size int) workload.Result {
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), false)
}

func (w *W) run(seed uint64, size int, p params, badTraining bool) Result {
	frames := genFrames(size, badTraining)
	r := rng.New(seed)
	s := initialState(p, r.Split())
	compute := computeOutput(p)
	res := Result{Frames: make([]Output, 0, size)}
	for _, f := range frames {
		var o Output
		o, s = compute(r.Split(), f, s)
		res.Frames = append(res.Frames, o)
	}
	return res
}

// RunOracle implements workload.Workload: the quality-maximizing
// configuration (§4.2's oracle), deterministic per size.
func (w *W) RunOracle(size int) workload.Result {
	return w.run(0x0AC1E, size, params{layers: 10, precision: tradeoff.Double, particles: 512}, false)
}

// RunBoosted implements workload.Workload (Fig. 16): spend factor× more
// quality-directed work.
func (w *W) RunBoosted(seed uint64, size int, factor float64) workload.Result {
	if factor < 1 {
		factor = 1
	}
	p := w.resolve(workload.SpecOptions{}, true)
	p.particles = int(math.Min(512, float64(p.particles)*factor))
	p.layers = int(math.Min(10, float64(p.layers)*math.Sqrt(factor)))
	return w.run(seed, size, p, false)
}

// RunSTATS implements workload.Workload: execute through the core engine.
// The compute target runs at default tradeoffs (the middle-end pins
// non-auxiliary tradeoffs to defaults); the auxiliary code runs at the
// option-selected tradeoffs.
func (w *W) RunSTATS(seed uint64, size int, o workload.SpecOptions) (workload.Result, core.Stats) {
	def := w.resolve(o, true)
	aux := w.resolve(o, false)
	frames := genFrames(size, o.BadTraining)
	dep := core.New(computeOutput(def), auxCode(aux), stateOps())
	init := initialState(def, rng.New(seed^0x1717))
	outs, _, st := dep.Run(frames, init, o.CoreOptions(seed))
	return Result{Frames: outs}, st
}

// CostModel implements workload.Workload. Work units are normalized so one
// default-tradeoff invocation costs 1.0.
func (w *W) CostModel(size int, o workload.SpecOptions) workload.Model {
	def := w.resolve(o, true)
	aux := w.resolve(o, false)
	unit := func(p params) float64 {
		return float64(p.layers) * float64(p.particles) / (5.0 * 128.0) * p.precision.CostFactor()
	}
	win := o.Window
	if win < 1 {
		win = 1
	}
	// Acceptance model, calibrated against the real engine's behaviour
	// (see TestSTATSSpeculationMostlySucceeds): re-detection from a
	// window of a few frames at default-grade tradeoffs almost always
	// reproduces the model; cheap auxiliary tradeoffs cut the acceptance
	// probability steeply, because the triangulating comparison only
	// admits states within the originals' (tight) spread.
	layerTerm := math.Pow(math.Min(1, float64(aux.layers)/5), 0.35)
	// The speculative state is the particle cloud's mean pose; its error
	// scales as 1/sqrt(particles), and the triangulating comparison only
	// admits states within the originals' tight spread — so acceptance
	// collapses quickly below the default particle count.
	particleTerm := math.Pow(math.Min(1, float64(aux.particles)/128), 0.75)
	precTerm := [3]float64{0.85, 0.97, 1.0}[aux.precision]
	auxQuality := layerTerm * particleTerm * precTerm
	// The auxiliary code re-detects (it seeds on the window's first
	// observation), so even a single recent frame recovers most of the
	// acceptance; see TestZeroWindowHurtsSpeculation for the real-engine
	// calibration.
	windowTerm := 1 - math.Exp(-2.2*float64(win))
	if o.BadTraining {
		// §4.6 training inputs: the subject does not move, so any
		// non-empty window looks sufficient during profiling — the
		// misleading signal the tuner trains on.
		if win >= 1 {
			windowTerm = 0.99
		} else {
			windowTerm = 0.2
		}
	}
	// Wider rollbacks re-execute more nondeterministic work, spreading
	// the original states and making the triangulating acceptance easier.
	rb := o.Rollback
	if rb < 1 {
		rb = 1
	}
	rollbackTerm := 1 - math.Exp(-1.3*float64(rb))
	match := windowTerm * rollbackTerm * math.Min(1, auxQuality)
	return workload.Model{
		NumInputs:      size,
		InvocationWork: unit(def),
		AuxWork:        float64(win) * unit(aux),
		InnerWidth:     16,
		// bodytrack's original TLP pays heavy synchronization: "the
		// latter requires more frequent inter-thread synchronizations
		// creating a bottleneck" (§4.3).
		InnerSerialFrac: 0.04,
		SyncWork:        0.12,
		ValidateWork:    0.02,
		// The triangulating acceptance needs at least two original
		// states ("the distance of S' with an original state S is less
		// or equal the distance of another original state and S"), so
		// the first validation always re-executes; each re-execution
		// then accepts with the auxiliary state's quality.
		MatchProb: 0,
		RedoGain:  match,
	}
}
