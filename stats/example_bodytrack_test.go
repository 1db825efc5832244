package stats_test

import (
	"fmt"
	"math"

	"repro/stats"
)

// Body tracking, the paper's flagship scenario (§2.2). A body of several
// parts moves through 3-D space; each frame carries noisy observations of
// the parts. A randomized particle filter updates a body model per frame —
// the model update is the state dependence that serializes the program. The
// auxiliary code re-detects the body from the last few frames, which works
// because "where a human is at quadruple i is likely to be independent of
// where he/she was in the quadruple i-k with high k".

const (
	parts     = 4
	particles = 96
	frames    = 48
)

type vec struct{ X, Y, Z float64 }

func (v vec) add(w vec) vec     { return vec{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }
func (v vec) sub(w vec) vec     { return vec{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }
func (v vec) dot(w vec) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }
func (v vec) jitter(r *stats.Rand, sd float64) vec {
	return v.add(vec{r.Norm() * sd, r.Norm() * sd, r.Norm() * sd})
}

// frame is one camera quadruple fused into per-part observations.
type frame struct{ Obs [parts]vec }

// model is the state: a particle set over body poses.
type model struct{ poses [][parts]vec }

func cloneModel(m model) model {
	return model{poses: append([][parts]vec(nil), m.poses...)}
}

func (m model) mean() [parts]vec {
	var out [parts]vec
	for _, p := range m.poses {
		for j := range out {
			out[j] = out[j].add(p[j])
		}
	}
	n := float64(len(m.poses))
	for j := range out {
		out[j] = vec{out[j].X / n, out[j].Y / n, out[j].Z / n}
	}
	return out
}

func modelDistance(a, b model) float64 {
	pa, pb := a.mean(), b.mean()
	sum := 0.0
	for j := range pa {
		d := pa[j].sub(pb[j])
		sum += math.Abs(d.X) + math.Abs(d.Y) + math.Abs(d.Z)
	}
	return sum
}

// filterStep perturbs, weighs and resamples the particle set against a
// frame (one annealing layer). The part likelihoods factorize, so each part
// resamples independently — the trick that keeps a modest particle count
// sharp in many dimensions. It updates the model it is handed in place: the
// state belongs to the call, and the runtime copies (cloneModel) where it
// needs a copy.
func filterStep(r *stats.Rand, m model, f frame) model {
	n := len(m.poses)
	weights := make([]float64, n)
	picked := make([]vec, n)
	for j := 0; j < parts; j++ {
		total := 0.0
		for i := range m.poses {
			m.poses[i][j] = m.poses[i][j].jitter(r, 0.3)
			diff := m.poses[i][j].sub(f.Obs[j])
			weights[i] = math.Exp(-diff.dot(diff))
			total += weights[i]
		}
		if total == 0 {
			continue
		}
		// Systematic resampling of part j.
		step := total / float64(n)
		u := r.Float64() * step
		cum, src := 0.0, 0
		for i := 0; i < n; i++ {
			for cum+weights[src] < u+float64(i)*step && src < n-1 {
				cum += weights[src]
				src++
			}
			picked[i] = m.poses[src][j]
		}
		for i := range picked {
			m.poses[i][j] = picked[i]
		}
	}
	return m
}

// anneal runs the three annealing layers of one frame.
func anneal(r *stats.Rand, m model, f frame) model {
	for layer := 0; layer < 3; layer++ {
		m = filterStep(r, m, f)
	}
	return m
}

// scene is the synthetic input: the body orbits slowly, and the
// observations are truth plus noise fixed at generation time.
func scene() []frame {
	fs := make([]frame, frames)
	for t := range fs {
		ft := float64(t)
		c := vec{3 * math.Sin(0.1*ft), 3 * math.Cos(0.08*ft), 0.1 * ft}
		for j := range fs[t].Obs {
			fj := float64(j)
			fs[t].Obs[j] = c.add(vec{math.Cos(fj), math.Sin(fj), 0}).add(vec{
				0.05 * math.Sin(13.7*float64(t*7+j)),
				0.05 * math.Cos(9.1*float64(t*5+j)),
				0.05 * math.Sin(5.3*float64(t*3+j)),
			})
		}
	}
	return fs
}

// ExampleStateDependence_bodyTracking tracks a body through 48 frames with
// re-detection auxiliary code and the triangulating acceptance of §4.2: a
// speculative model is accepted when its body position sits between two
// original positions.
func ExampleStateDependence_bodyTracking() {
	inputs := scene()
	initial := model{poses: make([][parts]vec, particles)}
	for i := range initial.poses {
		for j := 0; j < parts; j++ {
			initial.poses[i][j] = vec{float64(i%5) - 2, float64(i%3) - 1, 0}
		}
	}

	compute := func(r *stats.Rand, f frame, m model) ([parts]vec, model) {
		m = anneal(r, m, f)
		return m.mean(), m
	}
	// Re-detect: seed particles on the oldest recent observation, then
	// refine through the window the way compute anneals.
	aux := func(r *stats.Rand, init model, recent []frame) model {
		if len(recent) == 0 {
			return init // already a private copy
		}
		m := model{poses: make([][parts]vec, particles)}
		for i := range m.poses {
			for j := 0; j < parts; j++ {
				m.poses[i][j] = recent[0].Obs[j].jitter(r, 0.2)
			}
		}
		for _, f := range recent[1:] {
			m = anneal(r, m, f)
		}
		return m
	}
	// The tolerance is the developer's strictness choice, which the SDI
	// leaves open ("how strict the matching between speculative and
	// original states needs to be").
	match := func(spec model, originals []model) bool {
		const tol = 0.2
		for i := range originals {
			di := modelDistance(spec, originals[i])
			for j := range originals {
				if i != j && di <= modelDistance(originals[j], originals[i])+tol {
					return true
				}
			}
		}
		return false
	}

	sd := stats.NewStateDependence(inputs, initial, compute)
	sd.SetAuxiliary(aux)
	sd.SetStateOps(cloneModel, match)
	sd.Configure(stats.Options{
		UseAux: true, GroupSize: 8, Window: 4, RedoMax: 2, Rollback: 3, Workers: 8, Seed: 7,
	})
	positions, _, st := sd.Run()

	// Tracking error against the observations, after the filter's burn-in
	// from its diffuse prior.
	worst := 0.0
	for t := 4; t < len(positions); t++ {
		for j := 0; j < parts; j++ {
			d := positions[t][j].sub(inputs[t].Obs[j])
			worst = math.Max(worst, math.Sqrt(d.dot(d)))
		}
	}
	fmt.Printf("tracked %d frames in %d groups\n", len(positions), st.Groups)
	fmt.Printf("matches %d, redos %d, aborts %d, speculative commits %d frames\n",
		st.Matches, st.Redos, st.Aborts, st.SpeculativeCommits)
	fmt.Printf("worst per-part tracking error after burn-in: %.3f\n", worst)
	// Output:
	// tracked 48 frames in 6 groups
	// matches 5, redos 5, aborts 0, speculative commits 40 frames
	// worst per-part tracking error after burn-in: 0.284
}
