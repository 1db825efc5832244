// Package autotune is the STATS autotuner (§3.5): it explores the state
// space to find a performant (or energy-efficient) configuration, using a
// set of search techniques coordinated by a multi-armed bandit — the
// architecture of OpenTuner, which the paper builds on. Tradeoffs are
// integer parameters ("the values of a tradeoff can always be enumerated"),
// so every technique works on index vectors.
//
// The tuner records an evaluation trace so the harness can reproduce
// Fig. 20 (convergence: ~88 configurations suffice; variance across search
// seeds disappears after ~46). The autotuner itself is nondeterministic in
// exactly the paper's sense: different seeds may find different best
// configurations early on.
package autotune

import (
	"math"

	"repro/internal/rng"
	"repro/internal/space"
)

// Objective evaluates a configuration; lower is better. The profiler
// supplies execution time or energy depending on the optimization goal.
type Objective func(space.Config) float64

// Options configures a search.
type Options struct {
	// Budget is the number of objective evaluations (distinct or not).
	Budget int
	// Seed drives the search's own randomness.
	Seed uint64
	// Frozen pins dimensions (by index) to fixed values, used by the
	// Fig. 18 sweep to leave tradeoffs "un-encoded".
	Frozen map[int]int64
	// Seeds are configurations evaluated right after the default — the
	// "seed configurations" practice of OpenTuner-style tuners, giving
	// the techniques reasonable starting points in rugged landscapes.
	Seeds []space.Config
}

// Evaluation is one profiled configuration.
type Evaluation struct {
	Config    space.Config
	Value     float64
	Technique string
	// BestSoFar is the best value after this evaluation.
	BestSoFar float64
}

// Trace is the search history consumed by Fig. 20.
type Trace struct {
	Evaluations []Evaluation
}

// BestAfter returns the best value found within the first n evaluations
// (+Inf if n is 0 or the trace is empty).
func (t Trace) BestAfter(n int) float64 {
	if n > len(t.Evaluations) {
		n = len(t.Evaluations)
	}
	if n <= 0 {
		return math.Inf(1)
	}
	return t.Evaluations[n-1].BestSoFar
}

// EvaluationsToReach returns the number of evaluations needed to get within
// factor of the final best (e.g. 1.01 for "within 1%"), or the trace length
// if never reached.
func (t Trace) EvaluationsToReach(factor float64) int {
	if len(t.Evaluations) == 0 {
		return 0
	}
	final := t.Evaluations[len(t.Evaluations)-1].BestSoFar
	for i, e := range t.Evaluations {
		if e.BestSoFar <= final*factor {
			return i + 1
		}
	}
	return len(t.Evaluations)
}

// technique is one search strategy proposing the next configuration.
type technique interface {
	name() string
	propose(r *rng.Source, s *space.Space, st *state) space.Config
}

// state is the shared search state techniques draw on.
type state struct {
	best     space.Config
	bestVal  float64
	elites   []Evaluation // best-first, capped
	lastEval Evaluation
}

func (st *state) noteElite(e Evaluation) {
	st.elites = append(st.elites, e)
	// Insertion-sort the tail; the list stays tiny.
	for i := len(st.elites) - 1; i > 0 && st.elites[i].Value < st.elites[i-1].Value; i-- {
		st.elites[i], st.elites[i-1] = st.elites[i-1], st.elites[i]
	}
	if len(st.elites) > 8 {
		st.elites = st.elites[:8]
	}
}

// randomSearch proposes uniform points — pure exploration.
type randomSearch struct{}

func (randomSearch) name() string { return "random" }
func (randomSearch) propose(r *rng.Source, s *space.Space, _ *state) space.Config {
	return s.Random(r)
}

// hillClimb nudges the best configuration by one step.
type hillClimb struct{}

func (hillClimb) name() string { return "hill-climb" }
func (hillClimb) propose(r *rng.Source, s *space.Space, st *state) space.Config {
	return s.Neighbor(r, st.best, 1)
}

// anneal nudges the best configuration with a radius that shrinks as the
// search progresses (tracked via the elite count as a cheap clock).
type anneal struct{ step int }

func (*anneal) name() string { return "anneal" }
func (a *anneal) propose(r *rng.Source, s *space.Space, st *state) space.Config {
	a.step++
	radius := int64(4 - min(3, a.step/20))
	base := st.best
	if len(st.elites) > 1 && r.Bool(0.3) {
		base = st.elites[r.Intn(len(st.elites))].Config
	}
	return s.Neighbor(r, base, radius)
}

// genetic crosses two elites.
type genetic struct{}

func (genetic) name() string { return "genetic" }
func (genetic) propose(r *rng.Source, s *space.Space, st *state) space.Config {
	if len(st.elites) < 2 {
		return s.Random(r)
	}
	a := st.elites[r.Intn(len(st.elites))].Config
	b := st.elites[r.Intn(len(st.elites))].Config
	c := s.Crossover(r, a, b)
	if r.Bool(0.3) {
		c = s.Neighbor(r, c, 1)
	}
	return c
}

// Result is the outcome of a search.
type Result struct {
	Best    space.Config
	BestVal float64
	Trace   Trace
}

// Tune searches s for a configuration minimizing obj. The paper's baseline
// (every dimension at its default) is always evaluated first, so the tuner
// can never return something worse than the untouched program.
func Tune(s *space.Space, obj Objective, o Options) Result {
	if o.Budget < 1 {
		o.Budget = 1
	}
	r := rng.New(o.Seed)
	techs := []technique{randomSearch{}, hillClimb{}, &anneal{}, genetic{}}
	credit := make([]float64, len(techs))
	for i := range credit {
		credit[i] = 1
	}

	apply := func(c space.Config) space.Config {
		for i, v := range o.Frozen {
			c[i] = v
		}
		return c
	}

	st := &state{bestVal: math.Inf(1)}
	var trace Trace
	seen := map[string]float64{}

	evaluate := func(c space.Config, tech string) {
		key := c.Key()
		val, ok := seen[key]
		if !ok {
			val = obj(c)
			seen[key] = val
		}
		e := Evaluation{Config: c.Clone(), Value: val, Technique: tech}
		if val < st.bestVal {
			st.bestVal = val
			st.best = c.Clone()
		}
		e.BestSoFar = st.bestVal
		st.lastEval = e
		st.noteElite(e)
		trace.Evaluations = append(trace.Evaluations, e)
	}

	// The default configuration is the paper's baseline.
	evaluate(apply(s.Default()), "default")
	for _, seed := range o.Seeds {
		if len(trace.Evaluations) >= o.Budget {
			break
		}
		c := seed.Clone()
		if err := s.Validate(c); err != nil {
			continue
		}
		evaluate(apply(c), "seed")
	}

	for len(trace.Evaluations) < o.Budget {
		// AUC-bandit technique selection: probability proportional to
		// exponentially-decayed improvement credit.
		ti := pickTechnique(r, credit)
		c := apply(techs[ti].propose(r, s, st))
		before := st.bestVal
		evaluate(c, techs[ti].name())
		// Credit decay and reward.
		for i := range credit {
			credit[i] *= 0.98
			if credit[i] < 0.05 {
				credit[i] = 0.05
			}
		}
		if st.bestVal < before {
			credit[ti] += 1
		}
	}
	return Result{Best: st.best, BestVal: st.bestVal, Trace: trace}
}

func pickTechnique(r *rng.Source, credit []float64) int {
	total := 0.0
	for _, c := range credit {
		total += c
	}
	x := r.Float64() * total
	for i, c := range credit {
		x -= c
		if x <= 0 {
			return i
		}
	}
	return len(credit) - 1
}
