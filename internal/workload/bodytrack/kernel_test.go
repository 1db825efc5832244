package bodytrack

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
	"repro/internal/workload/workloadtest"
)

// updateModelReference is the textbook form of updateModel: it works on a
// copy of the set, draws each particle's noise just before weighing it (so
// every Exp waits on the draws before it) and resamples each part through a
// buffer of its own. updateModel must match it bit for bit.
func updateModelReference(r *rng.Source, p params, st State, f Frame) State {
	st = cloneState(st)
	if len(st.particles) != p.particles {
		st = resizeParticles(st, p.particles, r)
	}
	n := len(st.particles)
	weights := make([]float64, n)
	for layer := p.layers; layer >= 1; layer-- {
		scale := 0.4 * math.Pow(0.7, float64(p.layers-layer))
		beta := 1.5 * float64(layer) / float64(p.layers)
		for j := 0; j < numParts; j++ {
			total := 0.0
			for i := range st.particles {
				st.particles[i].pose[j] = st.particles[i].pose[j].Add(mathx.Vec3{
					X: r.Norm() * scale, Y: r.Norm() * scale, Z: r.Norm() * scale,
				})
				d := 0.0
				for c := 0; c < numCameras; c++ {
					diff := st.particles[i].pose[j].Sub(f.Cameras[c][j])
					d += diff.Dot(diff)
				}
				d /= numCameras
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
			resamplePartReference(st, j, weights, total, r)
		}
	}
	for i := range st.particles {
		st.particles[i].weight = 1 / float64(n)
	}
	return st
}

// resamplePartReference is resamplePart with a buffer of its own.
func resamplePartReference(st State, j int, weights []float64, total float64, r *rng.Source) {
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

// particleBits is a particle's pose and weight as bits.
func particleBits(p particle) [3*numParts + 1]uint64 {
	var b [3*numParts + 1]uint64
	for j, v := range p.pose {
		b[3*j], b[3*j+1], b[3*j+2] = math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)
	}
	b[3*numParts] = math.Float64bits(p.weight)
	return b
}

// randomState is a set of m particles scattered around frame f's fused
// observations, with random weights.
func randomState(gen *rng.Source, m int, f Frame) State {
	st := State{particles: make([]particle, m)}
	spread := gen.Range(0.05, 3)
	for i := range st.particles {
		for j := 0; j < numParts; j++ {
			st.particles[i].pose[j] = f.Obs[j].Add(mathx.Vec3{
				X: gen.Norm() * spread, Y: gen.Norm() * spread, Z: gen.Norm() * spread,
			})
		}
		st.particles[i].weight = gen.Float64()
	}
	return st
}

// TestUpdateModelMatchesReference: on random frames and particle sets at the
// three weight precisions — set sizes that re-sample narrower and wider, that
// keep the default count, and the oracle's 512 — updateModel returns the
// reference's particles bit for bit and leaves the stream where the reference
// does (the next normal draw agrees too).
func TestUpdateModelMatchesReference(t *testing.T) {
	frames := GenFrames(64, false)
	gen := rng.New(0xB0D7)
	sizes := [][2]int{{128, 32}, {32, 128}, {16, 16}, {128, 128}, {512, 512}}
	for _, prec := range []tradeoff.Precision{tradeoff.Half, tradeoff.Single, tradeoff.Double} {
		for _, sz := range sizes {
			for c := 0; c < 3; c++ {
				p := params{layers: 1 + gen.Intn(10), precision: prec, particles: sz[1]}
				f := frames[gen.Intn(len(frames))]
				st := randomState(gen, sz[0], f)
				seed := gen.Uint64()
				kernel, ref := rng.New(seed), rng.New(seed)
				want := updateModelReference(ref, p, st, f)
				got := updateModel(kernel, p, cloneState(st), f)
				if len(got.particles) != len(want.particles) {
					t.Fatalf("%v %v: %d particles, reference %d", prec, sz, len(got.particles), len(want.particles))
				}
				for i := range want.particles {
					if particleBits(got.particles[i]) != particleBits(want.particles[i]) {
						t.Fatalf("%v %v layers %d: particle %d %+v, reference %+v", prec, sz, p.layers, i, got.particles[i], want.particles[i])
					}
				}
				if g, w := kernel.Norm(), ref.Norm(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v %v layers %d: next draw %v, reference %v", prec, sz, p.layers, g, w)
				}
			}
		}
	}
}

// modelLoop is the measured body of BenchmarkUpdateModel and of its
// allocation ceiling: one default-tradeoff step, chained over the frames.
func modelLoop() func() {
	p := New().resolve(workload.SpecOptions{}, true)
	st := initialState(p, rng.New(1))
	frames := GenFrames(64, false)
	r := rng.New(2)
	i := 0
	return func() {
		st = updateModel(r, p, st, frames[i%len(frames)])
		i++
	}
}

func BenchmarkUpdateModel(b *testing.B) {
	body := modelLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// TestUpdateModelAllocations: a step at the default tradeoffs allocates
// nothing — its weights, noise and resample scratch are recycled, and it
// updates the particle set in place — warm and right after two garbage
// collections (workloadtest.NoAllocs).
func TestUpdateModelAllocations(t *testing.T) {
	if err := workloadtest.NoAllocs(modelLoop, 20); err != nil {
		t.Fatalf("a default step: %v", err)
	}
}

// TestUpdateModelScratchIsPrivate: the recycled weights, noise and resample
// scratch belong to one call (workloadtest.Scratch), and a step that keeps the
// particle count returns the array it was handed. Every third chain starts
// narrower and every third wider than the tradeoff, so its first step
// re-samples the set into a new array.
func TestUpdateModelScratchIsPrivate(t *testing.T) {
	p := New().resolve(workload.SpecOptions{}, true)
	p.layers = 2
	kernel := func(r *rng.Source, f Frame, st State) State {
		kept := len(st.particles) == p.particles
		handed := &st.particles[0]
		out := updateModel(r, p, st, f)
		if kept && &out.particles[0] != handed {
			t.Error("a step returned another array than the one it was handed")
		}
		return out
	}
	frames := GenFrames(8, false)
	gen := rng.New(0xB0D8)
	states := make([]State, 8)
	for k := range states {
		states[k] = randomState(gen, []int{p.particles, p.particles / 2, 2 * p.particles}[k%3], frames[0])
	}
	if err := workloadtest.Scratch(kernel, cloneState, states, frames); err != nil {
		t.Fatal(err)
	}
}
