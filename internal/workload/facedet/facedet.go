// Package facedet reproduces the paper's OpenCV-based face-detection
// benchmark (§4.2): detecting and tracking a face across a video stream
// with a randomized particle filter. The position of the faces found in
// frame i feeds the analysis of frame i+1 — the state dependence — and the
// particle filter's randomization makes the program nondeterministic.
//
// The synthetic video substitutes for the 40-second camera capture: a face
// (a box with a center and a scale) moves smoothly across the frame; each
// frame carries a noisy raw detection of it. Tradeoffs (§4.2): the number
// of particles and the number of times Gaussian noise is added to the
// particles, plus the detector's scoring precision and its scale-search
// granularity. The state comparison uses the average Euclidean distance of
// the four corner points of the face box, with the same triangulating
// acceptance as bodytrack.
package facedet

import (
	"math"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
)

// Frame is one video frame reduced to its raw face detection.
type Frame struct {
	DetCenter mathx.Vec2
	DetScale  float64
}

// particle is one face-box hypothesis.
type particle struct {
	center mathx.Vec2
	scale  float64
}

// State is the tracked face: the particle set.
type State struct {
	particles []particle
}

func cloneState(s State) State {
	c := State{particles: make([]particle, len(s.particles))}
	copy(c.particles, s.particles)
	return c
}

// box converts a (center, scale) face into its four-corner box.
func box(center mathx.Vec2, scale float64) quality.FaceBox {
	h := scale / 2
	return quality.FaceBox{Corners: [4]mathx.Vec2{
		{X: center.X - h, Y: center.Y - h},
		{X: center.X + h, Y: center.Y - h},
		{X: center.X - h, Y: center.Y + h},
		{X: center.X + h, Y: center.Y + h},
	}}
}

// meanFace returns the mean particle hypothesis.
func (s State) meanFace() (mathx.Vec2, float64) {
	if len(s.particles) == 0 {
		return mathx.Vec2{}, 1
	}
	var c mathx.Vec2
	sc := 0.0
	for _, p := range s.particles {
		c = c.Add(p.center)
		sc += p.scale
	}
	n := float64(len(s.particles))
	return c.Scale(1 / n), sc / n
}

// faceDistance is the state-comparison distance: the average Euclidean
// distance of the four corner points between the states' mean faces.
func faceDistance(a, b State) float64 {
	ca, sa := a.meanFace()
	cb, sb := b.meanFace()
	return quality.AvgFaceBoxDistance(
		[]quality.FaceBox{box(ca, sa)},
		[]quality.FaceBox{box(cb, sb)},
	)
}

// Result is the per-frame detected boxes; its Distance is the average
// Euclidean distance between the detected faces (§4.2).
type Result struct {
	Boxes []quality.FaceBox
}

// Distance implements workload.Result.
func (r Result) Distance(ref workload.Result) float64 {
	return quality.AvgFaceBoxDistance(r.Boxes, ref.(Result).Boxes)
}

// params resolve the four algorithmic tradeoffs.
type params struct {
	particles   int
	noiseRounds int
	scorePrec   tradeoff.Precision
	scaleSteps  int
}

// W is the facedet workload.
type W struct{}

// New returns the workload.
func New() *W { return &W{} }

// Desc implements workload.Workload with Table 1's facedet row.
func (*W) Desc() workload.Descriptor {
	return workload.Descriptor{
		Name:        "facedet",
		OriginalLOC: 606472,
		NumDeps:     1,
		Tradeoffs: []tradeoff.T{
			tradeoff.New("Particles", tradeoff.Constant, tradeoff.Enum{
				Values: []any{int64(16), int64(32), int64(64), int64(128), int64(256)}, Default: 3,
			}),
			tradeoff.New("NoiseRounds", tradeoff.Constant, tradeoff.IntRange{Lo: 1, Hi: 5, Default: 1}),
			tradeoff.New("ScorePrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("ScaleSteps", tradeoff.Constant, tradeoff.IntRange{Lo: 1, Hi: 4, Default: 2}),
		},
		TradeoffLOC:       [][2]int{{70, 150}, {5, 10}, {5, 10}, {3, 10}, {0, 10}, {0, 10}},
		ComparisonLOC:     29,
		SupportsSTATS:     true,
		VariabilitySource: "prvg",
	}
}

func (w *W) resolve(o workload.SpecOptions, defaults bool) params {
	ts := w.Desc().Tradeoffs
	return params{
		particles:   int(o.Value(ts, 0, defaults).(int64)),
		noiseRounds: int(o.Value(ts, 1, defaults).(int64)),
		scorePrec:   o.Value(ts, 2, defaults).(tradeoff.Precision),
		scaleSteps:  int(o.Value(ts, 3, defaults).(int64)),
	}
}

// trueFace returns the ground-truth face at frame t. The badTraining
// variant (§4.6: "the detected face in facedet does not move") pins it.
func trueFace(t int, badTraining bool) (mathx.Vec2, float64) {
	if badTraining {
		return mathx.Vec2{X: 50, Y: 50}, 12
	}
	ft := float64(t)
	return mathx.Vec2{
		X: 50 + 30*math.Sin(0.10*ft),
		Y: 50 + 20*math.Sin(0.07*ft),
	}, 12 + 3*math.Sin(0.05*ft)
}

// GenFrames materializes the video. The input seed is fixed so every run
// sees the same frames.
func GenFrames(size int, badTraining bool) []Frame {
	seed := uint64(0xFACE)
	if badTraining {
		seed ^= 0xBAD
	}
	r := rng.New(seed)
	frames := make([]Frame, size)
	for t := range frames {
		c, s := trueFace(t, badTraining)
		frames[t] = Frame{
			DetCenter: c.Add(mathx.Vec2{X: r.Norm() * 0.8, Y: r.Norm() * 0.8}),
			DetScale:  s + r.Norm()*0.4,
		}
	}
	return frames
}

func initialState(p params, r *rng.Source) State {
	s := State{particles: make([]particle, p.particles)}
	for i := range s.particles {
		s.particles[i] = particle{
			center: mathx.Vec2{X: 50 + r.Norm()*15, Y: 50 + r.Norm()*15},
			scale:  12 + r.Norm()*3,
		}
	}
	return s
}

// score returns the (quantized) detector response of a hypothesis against
// the frame's raw detection, searched over scaleSteps scale refinements.
func score(p params, hyp particle, f Frame) float64 {
	dist := hyp.center.Dist(f.DetCenter)
	best := math.Inf(1)
	for step := 0; step < p.scaleSteps; step++ {
		scale := hyp.scale * (1 + 0.02*float64(step-p.scaleSteps/2))
		if d := dist + math.Abs(scale-f.DetScale); d < best {
			best = d
		}
	}
	return p.scorePrec.Quantize(best)
}

// step is one particle-filter update: noiseRounds perturbation/weight/
// resample rounds against the frame. It perturbs the particles it is handed in
// place (core.Compute: the state belongs to the call), and each round
// resamples into the buffer the round before it left free: the handed-in
// particles and one spare.
func step(r *rng.Source, p params, st State, f Frame) State {
	if len(st.particles) != p.particles {
		st = resize(st, p.particles, r)
	}
	n := len(st.particles)
	weights := make([]float64, n)
	spare := make([]particle, n)
	for round := 0; round < p.noiseRounds; round++ {
		sigma := 1.2 * math.Pow(0.7, float64(round))
		total := 0.0
		for i := range st.particles {
			st.particles[i].center = st.particles[i].center.Add(mathx.Vec2{
				X: r.Norm() * sigma, Y: r.Norm() * sigma,
			})
			st.particles[i].scale += r.Norm() * sigma * 0.3
			if st.particles[i].scale < 1 {
				st.particles[i].scale = 1
			}
			w := math.Exp(-score(p, st.particles[i], f))
			weights[i] = w
			total += w
		}
		if total <= 0 {
			for i := range weights {
				weights[i] = 1
			}
			total = float64(n)
		}
		// Systematic resampling by weight into the spare buffer.
		stepSize := total / float64(n)
		u := r.Float64() * stepSize
		cum := 0.0
		src := 0
		for i := range spare {
			target := u + float64(i)*stepSize
			for cum+weights[src] < target && src < n-1 {
				cum += weights[src]
				src++
			}
			spare[i] = st.particles[src]
		}
		st.particles, spare = spare, st.particles
	}
	return st
}

func resize(st State, n int, r *rng.Source) State {
	out := State{particles: make([]particle, n)}
	for i := 0; i < n; i++ {
		out.particles[i] = st.particles[r.Intn(len(st.particles))]
	}
	return out
}

// computeOutput updates the face position with the frame (the state-
// dependence target) and emits the detected box.
func computeOutput(p params) core.Compute[Frame, State, quality.FaceBox] {
	return func(r *rng.Source, f Frame, s State) (quality.FaceBox, State) {
		s = step(r, p, s, f)
		c, sc := s.meanFace()
		return box(c, sc), s
	}
}

// auxCode re-detects the face from the recent frames at the auxiliary
// tradeoffs, seeding particles on the oldest recent detection. It reads init
// only when the window is empty; the engine hands it a copy regardless — it
// cannot know which.
func auxCode(aux params) core.Aux[Frame, State] {
	return func(r *rng.Source, init State, recent []Frame) State {
		if len(recent) == 0 {
			return resize(init, aux.particles, r)
		}
		s := State{particles: make([]particle, aux.particles)}
		for i := range s.particles {
			s.particles[i] = particle{
				center: recent[0].DetCenter.Add(mathx.Vec2{X: r.Norm(), Y: r.Norm()}),
				scale:  recent[0].DetScale + r.Norm()*0.5,
			}
		}
		for _, f := range recent[1:] {
			s = step(r, aux, s, f)
		}
		return s
	}
}

func stateOps() core.StateOps[State] {
	return core.StateOps[State]{
		Clone: cloneState,
		MatchAny: func(spec State, originals []State) bool {
			// Triangulating acceptance with a sub-pixel tolerance: the
			// SDI leaves the strictness to the developer ("how strict
			// the matching between speculative and original states
			// needs to be", §3.3); half a pixel on a ~12-pixel face is
			// well inside the detector's own noise.
			const tol = 0.5
			for i := range originals {
				di := faceDistance(spec, originals[i])
				for j := range originals {
					if i == j {
						continue
					}
					if di <= faceDistance(originals[j], originals[i])+tol {
						return true
					}
				}
			}
			return false
		},
		// Acceptance is a sub-pixel tolerance ball over the mean-face
		// corner distance, and spec and original particle counts may
		// differ (auxiliary re-detection uses its own particle tradeoff),
		// so the only acceptance-invariant feature is the fixed 4-corner
		// box structure: the prefilter always falls through to the deep
		// comparison, keeping the hash-first wiring live at the cost of
		// one probe.
		Fingerprint: func(State) uint64 {
			const boxCorners = 4
			return mathx.NewHash64().Int(boxCorners).Sum()
		},
	}
}

// RunOriginal implements workload.Workload.
func (w *W) RunOriginal(seed uint64, size int) workload.Result {
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), false)
}

func (w *W) run(seed uint64, size int, p params, badTraining bool) Result {
	frames := GenFrames(size, badTraining)
	r := rng.New(seed)
	s := initialState(p, r.Split())
	compute := computeOutput(p)
	res := Result{Boxes: make([]quality.FaceBox, 0, size)}
	for _, f := range frames {
		var b quality.FaceBox
		b, s = compute(r.Split(), f, s)
		res.Boxes = append(res.Boxes, b)
	}
	return res
}

// RunOracle implements workload.Workload.
func (w *W) RunOracle(size int) workload.Result {
	return w.run(0x0AC1E, size, params{particles: 512, noiseRounds: 5, scorePrec: tradeoff.Double, scaleSteps: 4}, false)
}

// RunBoosted implements workload.Workload (Fig. 16).
func (w *W) RunBoosted(seed uint64, size int, factor float64) workload.Result {
	if factor < 1 {
		factor = 1
	}
	p := w.resolve(workload.SpecOptions{}, true)
	p.particles = int(math.Min(512, float64(p.particles)*factor))
	p.noiseRounds = int(math.Min(5, float64(p.noiseRounds)*math.Sqrt(factor)))
	return w.run(seed, size, p, false)
}

// RunSTATS implements workload.Workload.
func (w *W) RunSTATS(seed uint64, size int, o workload.SpecOptions) (workload.Result, core.Stats) {
	def := w.resolve(o, true)
	aux := w.resolve(o, false)
	frames := GenFrames(size, o.BadTraining)
	dep := core.New(computeOutput(def), auxCode(aux), stateOps())
	init := initialState(def, rng.New(seed^0xFD))
	outs, _, st := dep.Run(frames, init, o.CoreOptions(seed))
	return Result{Boxes: outs}, st
}

// CostModel implements workload.Workload. The original program's
// parallelism is spent on vectorization, not threads (§4.3: "the original
// parallelism available in facedet is used to aggressively vectorize the
// code"), so its thread-level width is 1 and STATS contributes nearly all
// of the TLP.
func (w *W) CostModel(size int, o workload.SpecOptions) workload.Model {
	def := w.resolve(o, true)
	aux := w.resolve(o, false)
	unit := func(p params) float64 {
		return float64(p.particles) / 128 * float64(p.noiseRounds) / 2 *
			(0.7 + 0.3*float64(p.scaleSteps)/3) * p.scorePrec.CostFactor()
	}
	win := o.Window
	if win < 1 {
		win = 1
	}
	particleTerm := 0.70 + 0.30*math.Sqrt(math.Min(1, float64(aux.particles)/128))
	roundTerm := 0.80 + 0.20*math.Sqrt(math.Min(1, float64(aux.noiseRounds)/2))
	precTerm := [3]float64{0.88, 0.97, 1.0}[aux.scorePrec]
	auxQuality := particleTerm * roundTerm * precTerm
	rb := o.Rollback
	if rb < 1 {
		rb = 1
	}
	rollbackTerm := 1 - math.Exp(-0.9*float64(rb))
	windowTerm := 1 - math.Exp(-2.2*float64(win))
	if o.BadTraining {
		// §4.6 training inputs: the face does not move, so any
		// non-empty window looks sufficient during profiling.
		if win >= 1 {
			windowTerm = 0.99
		} else {
			windowTerm = 0.2
		}
	}
	match := windowTerm * rollbackTerm * math.Min(1, auxQuality)
	return workload.Model{
		NumInputs:       size,
		InvocationWork:  unit(def),
		AuxWork:         float64(win) * unit(aux),
		InnerWidth:      4,
		InnerSerialFrac: 0.25,
		SyncWork:        0.05,
		ValidateWork:    0.01,
		// Triangulating acceptance (like bodytrack's): the first
		// validation always re-executes, then each re-execution accepts
		// with the auxiliary state's quality.
		MatchProb: 0,
		RedoGain:  math.Min(0.97, match),
	}
}
