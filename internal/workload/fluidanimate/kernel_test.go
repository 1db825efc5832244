package fluidanimate

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
	"repro/internal/workload/workloadtest"
)

// simulateStepReference is the functional form of simulateStep: fresh density
// and force buffers, and the integration writes a copy of the state, leaving
// the one it is handed as it was. simulateStep must match it bit for bit.
func simulateStepReference(r *rng.Source, p params, s State, in Step, jitterScale float64) State {
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
			push := (smoothing - dist) / dist * 0.02 * (density[i] + density[j])
			f = f.Add(delta.Scale(push))
			f = f.Add(s.Vel[j].Sub(s.Vel[i]).Scale(0.01))
		}
		f = f.Add(in.Impulse)
		f = f.Add(mathx.Vec3{X: r.Norm(), Y: r.Norm(), Z: r.Norm()}.Scale(0.002 * jitterScale))
		forces[i] = mathx.Vec3{
			X: p.force.Quantize(f.X), Y: p.force.Quantize(f.Y), Z: p.force.Quantize(f.Z),
		}
	}
	next := cloneState(s)
	for i := 0; i < n; i++ {
		v := s.Vel[i].Add(forces[i].Scale(dt))
		v = mathx.Vec3{X: p.vel.Quantize(v.X), Y: p.vel.Quantize(v.Y), Z: p.vel.Quantize(v.Z)}
		pos := s.Pos[i].Add(v.Scale(dt))
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

// vecBits is a vector's coordinates as bits.
func vecBits(v mathx.Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

// randomState is a fluid of m particles packed into a cube of random edge
// (dense enough that most pairs interact), some of them just outside the box
// so the walls reflect, with random velocities.
func randomState(gen *rng.Source, m int) State {
	s := State{Pos: make([]mathx.Vec3, m), Vel: make([]mathx.Vec3, m)}
	edge := gen.Range(1, boxSize)
	lo := gen.Range(-0.5, boxSize+0.5-edge)
	speed := gen.Range(0, 3)
	for i := range s.Pos {
		s.Pos[i] = mathx.Vec3{X: lo + gen.Float64()*edge, Y: lo + gen.Float64()*edge, Z: lo + gen.Float64()*edge}
		s.Vel[i] = mathx.Vec3{X: gen.Norm() * speed, Y: gen.Norm() * speed, Z: gen.Norm() * speed}
	}
	return s
}

// TestSimulateStepMatchesReference: over random fluids and frames, at every
// sqrt version and every density, force and velocity precision, with the
// jitter on, attenuated and off, simulateStep returns the reference's
// positions and velocities bit for bit and leaves the stream where the
// reference does (the next normal draw agrees too).
func TestSimulateStepMatchesReference(t *testing.T) {
	steps := GenSteps(32, false)
	gen := rng.New(0xF1D7)
	precs := []tradeoff.Precision{tradeoff.Half, tradeoff.Single, tradeoff.Double}
	for _, sq := range []sqrtVersion{sqrtCoarse, sqrtNewton, sqrtExact} {
		for _, dp := range precs {
			for _, fp := range precs {
				for _, vp := range precs {
					p := params{sqrt: sq, density: dp, force: fp, vel: vp}
					for c := 0; c < 2; c++ {
						st := randomState(gen, []int{numParticles, numParticles / numFluids, 1 + gen.Intn(2*numParticles)}[gen.Intn(3)])
						in := steps[gen.Intn(len(steps))]
						jitter := []float64{1, 0.25, 0}[gen.Intn(3)]
						seed := gen.Uint64()
						kernel, ref := rng.New(seed), rng.New(seed)
						want := simulateStepReference(ref, p, st, in, jitter)
						got := simulateStep(kernel, p, cloneState(st), in, jitter)
						for i := range want.Pos {
							if vecBits(got.Pos[i]) != vecBits(want.Pos[i]) || vecBits(got.Vel[i]) != vecBits(want.Vel[i]) {
								t.Fatalf("%+v jitter %v: particle %d at %+v moving %+v, reference %+v moving %+v",
									p, jitter, i, got.Pos[i], got.Vel[i], want.Pos[i], want.Vel[i])
							}
						}
						if g, w := kernel.Norm(), ref.Norm(); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%+v jitter %v: next draw %v, reference %v", p, jitter, g, w)
						}
					}
				}
			}
		}
	}
}

// TestSimulateStepScratchIsPrivate: the recycled density and force scratch
// belongs to one call (workloadtest.Scratch), and a step returns the arrays it
// was handed.
func TestSimulateStepScratchIsPrivate(t *testing.T) {
	p := New().resolve(workload.SpecOptions{}, true)
	kernel := func(r *rng.Source, in Step, s State) State {
		pos, vel := &s.Pos[0], &s.Vel[0]
		out := simulateStep(r, p, s, in, 1)
		if &out.Pos[0] != pos || &out.Vel[0] != vel {
			t.Error("a step returned other arrays than the ones it was handed")
		}
		return out
	}
	gen := rng.New(0xF1D8)
	states := make([]State, 8)
	for k := range states {
		states[k] = randomState(gen, numParticles)
	}
	if err := workloadtest.Scratch(kernel, cloneState, states, GenSteps(12, false)); err != nil {
		t.Fatal(err)
	}
}

// simulateLoop is the measured body of BenchmarkSimulateStep and of its
// allocation ceiling: one default-tradeoff frame, chained over the steps.
func simulateLoop() func() {
	p := New().resolve(workload.SpecOptions{}, true)
	s := initialState()
	steps := GenSteps(64, false)
	r := rng.New(2)
	i := 0
	return func() {
		s = simulateStep(r, p, s, steps[i%len(steps)], 1)
		i++
	}
}

func BenchmarkSimulateStep(b *testing.B) {
	body := simulateLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// TestSimulateStepAllocations: a frame allocates nothing — its density and
// force scratch is recycled and the integration updates the fluid in place —
// warm and right after two garbage collections (workloadtest.NoAllocs).
func TestSimulateStepAllocations(t *testing.T) {
	if err := workloadtest.NoAllocs(simulateLoop, 100); err != nil {
		t.Fatalf("a default frame: %v", err)
	}
}
